package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// heldOutSeed is the seed no benchmark default uses; the anchors below
// are checked on it, and later claims can be re-run on it.
const heldOutSeed = 7

// scaled returns the workload's config builders, shortened under
// -short so the equivalence still runs every layer in seconds.
func scaled(w workloadDef) workloadDef {
	if !testing.Short() {
		return w
	}
	if day := w.day; day != nil {
		w.day = func(seed int64) experiments.DayConfig {
			c := day(seed)
			c.Horizon = 2 * time.Hour
			return c
		}
	}
	if fed := w.fed; fed != nil {
		w.fed = func(seed int64) experiments.FederatedConfig {
			c := fed(seed)
			c.Horizon = 5 * time.Minute
			return c
		}
	}
	return w
}

// composed runs the benchmark's composition once and checks request
// conservation.
func composed(t *testing.T, w workloadDef, seed int64, sharded bool) modelled {
	t.Helper()
	in := setup(w.build(seed, sharded), hooks{})
	if err := in.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m, _ := in.reduce()
	if err := in.conserve(); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return m
}

// fromLoad fills the modelled fields every entry point reports.
func fromLoad(rep loadgen.Report, lat stats.Collector) modelled {
	m := modelled{
		Issued:   rep.Issued,
		Success:  rep.Totals[loadgen.LabelSuccess],
		N503:     rep.Totals[loadgen.Label503],
		Timeouts: rep.Totals[loadgen.LabelLost],
		Failed:   rep.Totals[loadgen.LabelFailed],
	}
	m.InFlight = m.Issued - m.Success - m.N503 - m.Timeouts - m.Failed
	m.SuccessPct = 100 * float64(m.Success) / float64(m.Issued)
	m.P50ms = 1000 * lat.Quantile(0.50)
	m.P999ms = 1000 * lat.Quantile(0.999)
	return m
}

// entryPoint runs the workload through the program's own entry point.
// RunFederatedCtx keeps no compute ledger, so its goodput is taken
// from the composition.
func entryPoint(t *testing.T, w workloadDef, seed int64, goodput float64) modelled {
	t.Helper()
	ctx := context.Background()
	if w.day != nil {
		r, err := experiments.RunDayCtx(ctx, w.day(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		m := fromLoad(r.Load, r.Latencies)
		m.CoveragePct = 100 * r.SlurmLevel.ShareUsed
		m.GoodputPct = 100 * r.Work.GoodputShare()
		m.SimBoundPct = 100 * r.Sim.Coverage()
		return m
	}
	r, err := experiments.RunFederatedCtx(ctx, w.fed(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := r.Runs[0]
	m := fromLoad(run.Load, run.Latencies)
	m.CoveragePct = 100 * run.GlobalCoverage
	m.GoodputPct = goodput
	return m
}

// TestCompositionMatchesEntryPoints pins the benchmark's composition
// to what users run: for every workload, the modelled output of
// setup/run/reduce — sequential and under the pdes coordinator — must
// equal the program entry point's exactly.
func TestCompositionMatchesEntryPoints(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := scaled(w)
			got := composed(t, w, w.defaultSeed, false)
			if want := entryPoint(t, w, w.defaultSeed, got.GoodputPct); got != want {
				t.Errorf("composition %+v\nentry point %+v", got, want)
			}
			if sharded := composed(t, w, w.defaultSeed, true); sharded != got {
				t.Errorf("sharded %+v\nsequential %+v", sharded, got)
			}
		})
	}
}

// TestTracedRunMatchesUntraced checks that the layer wrappers and the
// Step-driven loop only observe: the traced run's modelled output
// equals the untraced run's, and every wrapper saw every call.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := scaled(w)
			r, err := repetition(w.build(w.defaultSeed, false), true)
			if err != nil {
				t.Fatal(err)
			}
			if want := composed(t, w, w.defaultSeed, false); r.Model != want {
				t.Errorf("traced %+v\nuntraced %+v", r.Model, want)
			}
			if r.Trace.Events == 0 || r.Trace.Picks != r.Model.Issued {
				t.Errorf("traced counts %+v for %d issued requests", *r.Trace, r.Model.Issued)
			}
		})
	}
}

// TestHeldOutSeedNearAnchors runs every workload on the held-out
// seed. fib-day must stay within the paper anchors the
// experiments tests assert for fib days (Table II coverage ≈90%, ≥93%
// invoked and successful, Fig 5b median ≈865 ms); every workload's
// modelled metrics must stay within a quarter of its default seed's.
func TestHeldOutSeedNearAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length days")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			held := composed(t, w, heldOutSeed, false)
			base := composed(t, w, w.defaultSeed, false)
			if w.name == "fib-day" {
				invoked := float64(held.Issued-held.N503) / float64(held.Issued)
				ok := float64(held.Success) / float64(held.Issued-held.N503)
				if held.CoveragePct < 80 || held.CoveragePct > 95 || invoked < 0.93 || ok < 0.93 ||
					held.P50ms < 600 || held.P50ms > 1300 || held.SimBoundPct < held.CoveragePct-2 {
					t.Errorf("fib-day seed %d off the paper anchors: %+v", heldOutSeed, held)
				}
			}
			near := map[string][2]float64{
				"success_pct":     {held.SuccessPct, base.SuccessPct},
				"latency_p50_ms":  {held.P50ms, base.P50ms},
				"latency_p999_ms": {held.P999ms, base.P999ms},
				"coverage_pct":    {held.CoveragePct, base.CoveragePct},
				"goodput_pct":     {held.GoodputPct, base.GoodputPct},
			}
			for name, v := range near {
				if math.Abs(v[0]-v[1]) > 0.25*v[1] {
					t.Errorf("%s: seed %d gives %.4g, seed %d %.4g", name, heldOutSeed, v[0], w.defaultSeed, v[1])
				}
			}
			t.Logf("seed %d: %+v", heldOutSeed, held)
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark in
// step: the same workloads, and every metric the benchmark prints
// declared there with the same unit.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []decl, printed []metric) {
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		if len(units) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(units), len(printed))
		}
		for _, m := range printed {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s [%s] declared as [%s] (present: %v)", kind, m.name, m.unit, u, ok)
			}
		}
	}
	b := &bench{w: workloads[0]}
	rep := repResult{Trace: &traceCounts{}, Spans: &traceSpans{}}
	check("end_to_end", spec.EndToEnd, b.endToEnd([]repResult{rep}, []repResult{rep}))
	check("per_layer", spec.PerLayer, layerMetrics([]repResult{rep}, []repResult{rep}, []repResult{rep}))
}
