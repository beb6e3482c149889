// Command perfbench is the repository benchmark: it measures the
// HPC-Whisk simulator (host time and memory to set up, simulate and
// reduce a workload) and the system it models (success share, latency
// quantiles, coverage and goodput), and with -trace 1 breaks one run
// down by layer. README.md lists the workloads, the metrics and the
// layer each metric belongs to.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fib-day --seed 1 --seconds 40 --trace 0
//
// Every repetition runs in a child process of this binary, so each
// one's peak memory is its own and no repetition inherits another's
// heap. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; attempted counts the
// simulation runs made and failed the runs whose checks failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// deadline bounds a whole measured run, children included: a run that
// hangs is stopped and fails well within three minutes.
const deadline = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fib-day, fed-peak or ckpt-churn")
	seed := fs.Int64("seed", -1, "workload seed (negative: the workload's default seed)")
	seconds := fs.Int("seconds", 40, "measurement budget of the run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	rep := fs.String("rep", "", "internal: run one repetition (untraced or traced) and print its result")
	sharded := fs.Bool("sharded", false, "internal: run the repetition under the pdes coordinator")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seed < 0 {
		*seed = w.defaultSeed
	}
	if *rep != "" {
		return childMain(w, *seed, *rep, *sharded, stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, start: time.Now(), log: stderr}
	var metrics []metric
	if *trace == 1 {
		metrics, err = b.traced()
	} else {
		metrics, err = b.untraced()
	}
	printResult(stdout, b, metrics, err)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// bench is one measured run: a sequence of child repetitions.
type bench struct {
	ctx    context.Context
	w      workloadDef
	seed   int64
	budget time.Duration
	start  time.Time
	log    io.Writer

	attempted, failed int
	successes         int // successful requests behind the latency metrics
}

// spawn runs one repetition in a child process and returns its result
// with the child's peak resident memory.
func (b *bench) spawn(mode string, seed int64, sharded bool) (repResult, error) {
	b.attempted++
	exe, err := os.Executable()
	if err != nil {
		b.failed++
		return repResult{}, err
	}
	cmd := exec.CommandContext(b.ctx, exe,
		"-workload", b.w.name, "-seed", strconv.FormatInt(seed, 10),
		"-rep", mode, "-sharded="+strconv.FormatBool(sharded))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = b.log
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		b.failed++
		return repResult{}, fmt.Errorf("%s repetition, seed %d, sharded=%v: %w", mode, seed, sharded, err)
	}
	var r repResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		b.failed++
		return repResult{}, fmt.Errorf("%s repetition, seed %d: bad result: %w", mode, seed, err)
	}
	r.wall = time.Since(t0)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return r, nil
}

// same checks the identity contract: the modelled output is a pure
// function of workload and seed.
func (b *bench) same(what string, got, want repResult) error {
	if got.Model != want.Model {
		b.failed++
		return fmt.Errorf("%s: modelled output differs:\n got  %+v\n want %+v", what, got.Model, want.Model)
	}
	return nil
}

// more reports whether another step of the given expected duration
// still fits the run's budget.
func (b *bench) more(next time.Duration) bool {
	return time.Since(b.start)+next <= b.budget
}

// untraced measures the end-to-end metrics. Repetitions cycle through
// the workload's seeds (seedsOf) until every seed has run and the first
// has run twice, then go on while the budget lasts. Each repeated seed
// checks that it reproduces its modelled output. The first repeat runs
// under the pdes coordinator, so it also checks the pdes contract; its
// host times are left out. Host-time metrics are medians over the
// sequential repetitions; modelled metrics are means over the seeds.
func (b *bench) untraced() ([]metric, error) {
	seeds := b.w.seedsOf(b.seed)
	var perSeed, timed []repResult
	for i := 0; ; i++ {
		k := i % len(seeds)
		sharded := i == len(seeds)
		r, err := b.spawn("untraced", seeds[k], sharded)
		if err != nil {
			return nil, err
		}
		switch {
		case i < len(seeds):
			perSeed = append(perSeed, r)
		case sharded:
			err = b.same("sharded vs sequential", r, perSeed[k])
		default:
			err = b.same("repeated seed", r, perSeed[k])
		}
		if err != nil {
			return nil, err
		}
		if !sharded {
			timed = append(timed, r)
		}
		if i >= len(seeds) && !b.more(r.wall) {
			break
		}
	}
	for _, r := range perSeed {
		b.successes += r.Model.Success
	}
	return b.endToEnd(timed, perSeed), nil
}

// endToEnd reduces the repetitions to the end-to-end metrics: host
// times are medians over the timed repetitions, modelled metrics the
// means over the per-seed ones.
func (b *bench) endToEnd(timed, perSeed []repResult) []metric {
	host := func(f func(repResult) float64) float64 { return median(timed, f) }
	model := func(f func(modelled) float64) float64 {
		sum := 0.0
		for _, r := range perSeed {
			sum += f(r.Model)
		}
		return sum / float64(len(perSeed))
	}
	return []metric{
		{"setup_s", "s", host(func(r repResult) float64 { return r.SetupS })},
		{"run_s", "s", host(func(r repResult) float64 { return r.RunS })},
		{"report_s", "s", host(func(r repResult) float64 { return r.ReportS })},
		{"mem_peak_mb", "MB", host(func(r repResult) float64 { return r.maxRSSMB })},
		{"success_pct", "%", model(func(m modelled) float64 { return m.SuccessPct })},
		{"latency_p50_ms", "ms", model(func(m modelled) float64 { return m.P50ms })},
		{"latency_p999_ms", "ms", model(func(m modelled) float64 { return m.P999ms })},
		{"coverage_pct", "%", model(func(m modelled) float64 { return m.CoveragePct })},
		{"goodput_pct", "%", model(func(m modelled) float64 { return m.GoodputPct })},
	}
}

// traced measures the per-layer metrics on the run's seed: an untraced
// run of the workload, an untraced run of the same seed under the pdes
// coordinator, and a traced run, then further untraced/traced pairs
// while the budget lasts. Host-time figures are medians; counts come
// from the traced run and must repeat exactly.
func (b *bench) traced() ([]metric, error) {
	own, err := b.spawn("untraced", b.seed, false)
	if err != nil {
		return nil, err
	}
	sharded, err := b.spawn("untraced", b.seed, true)
	if err != nil {
		return nil, err
	}
	if err := b.same("sharded vs sequential", sharded, own); err != nil {
		return nil, err
	}
	b.successes = own.Model.Success
	owns := []repResult{own}
	var traces []repResult
	for {
		t, err := b.spawn("traced", b.seed, false)
		if err != nil {
			return nil, err
		}
		if err := b.same("traced vs untraced", t, own); err != nil {
			return nil, err
		}
		if len(traces) > 0 && *t.Trace != *traces[0].Trace {
			b.failed++
			return nil, fmt.Errorf("traced counts differ between runs:\n got  %+v\n want %+v", *t.Trace, *traces[0].Trace)
		}
		traces = append(traces, t)
		if !b.more(t.wall + own.wall) {
			break
		}
		u, err := b.spawn("untraced", b.seed, false)
		if err != nil {
			return nil, err
		}
		if err := b.same("repeated run", u, own); err != nil {
			return nil, err
		}
		owns = append(owns, u)
	}
	return layerMetrics(owns, []repResult{sharded}, traces), nil
}

// median returns the median of f over the repetitions.
func median(reps []repResult, f func(repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// printResult writes a readable table and, as the last line, the JSON
// result object.
func printResult(w io.Writer, b *bench, metrics []metric, runErr error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: runErr == nil, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]value{}}
	if runErr != nil && out.Failed == 0 {
		out.Failed = 1
	}
	fmt.Fprintf(w, "# %s seed=%d runs=%d (%s, %d CPUs)\n", b.w.name, b.seed, b.attempted, runtime.Version(), runtime.NumCPU())
	for _, m := range metrics {
		note := ""
		if m.name == "latency_p999_ms" {
			note = fmt.Sprintf("  (%d successful requests)", b.successes)
		}
		fmt.Fprintf(w, "%-28s %16.6g %-10s%s\n", m.name, m.value, m.unit, note)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	enc, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintln(w, string(enc))
}
