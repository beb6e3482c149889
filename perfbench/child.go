package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// repResult is what one child repetition reports to the parent.
type repResult struct {
	SetupS  float64
	RunS    float64
	ReportS float64

	// Set-up and report breakdown.
	GenerateS   float64
	IdlePeriods int
	CoverageS   float64

	// Go runtime activity during the run phase.
	Mallocs  uint64
	GCCycles uint32

	Model modelled

	// Traced repetitions only.
	Trace *traceCounts `json:",omitempty"`
	Spans *traceSpans  `json:",omitempty"`

	wall     time.Duration // filled by the parent
	maxRSSMB float64       // filled by the parent
}

// traceCounts are the per-layer counts of a traced run. They are
// functions of workload and seed and must repeat exactly.
type traceCounts struct {
	Events     int
	PendingMax int

	IngressCalls int
	DoneCalls    int
	Picks        int
	SupplyCalls  int
	Spilled      int
	NoSitePicks  int

	Cold, Executed, Requeues int
	N503, Timeouts, Failed   int
	MovedToFastLane          int
	BusPublished, BusMoved   int

	RouteP50ms, QueueStartP50ms, ExecEgressP50ms float64

	Preempted, PilotsStarted, Handoffs int
	Dumps, Resumes                     int
	WastedS                            float64
}

// traceSpans are the host-time spans of a traced run's wrapped layer
// boundaries, in seconds.
type traceSpans struct {
	Ingress float64 // front door + controller admission (contains Pick)
	Done    float64 // load generator completion callback
	Pick    float64 // routing policy
	Supply  float64 // supply policies of every site
}

// childMain runs one repetition of the workload and prints its result
// as JSON. A traced repetition runs sequentially: it drives the shared
// event plane with Step, which the pdes coordinator would own.
func childMain(w workloadDef, seed int64, mode string, sharded bool, stdout, stderr io.Writer) int {
	var r repResult
	var err error
	switch mode {
	case "untraced":
		r, err = repetition(w.build(seed, sharded), false)
	case "traced":
		r, err = repetition(w.build(seed, false), true)
	default:
		err = fmt.Errorf("unknown repetition mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// setupReps is how many times a repetition builds its workload; set-up
// takes milliseconds, so one build is too short to time steadily. The
// last build is the one that runs.
const setupReps = 5

// repetition sets up, runs and reduces the plan once, timing each
// phase, and checks request conservation.
func repetition(p plan, traced bool) (repResult, error) {
	var r repResult
	var in *instance
	var t *tracer
	setups := make([]repResult, setupReps)
	for i := range setups {
		var h hooks
		if traced {
			t = &tracer{}
			h = t.hooks()
		}
		in = nil
		runtime.GC()
		t0 := time.Now()
		in = setup(p, h)
		setups[i] = repResult{SetupS: time.Since(t0).Seconds(), GenerateS: in.generateS}
	}
	r.SetupS = median(setups, func(s repResult) float64 { return s.SetupS })
	r.GenerateS = median(setups, func(s repResult) float64 { return s.GenerateS })
	r.IdlePeriods = in.idlePeriods

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	if t != nil {
		t.run(in)
	} else if err := in.run(context.Background()); err != nil {
		return r, err
	}
	r.RunS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	r.Mallocs = ms1.Mallocs - ms0.Mallocs
	r.GCCycles = ms1.NumGC - ms0.NumGC

	// Collect the run's garbage before timing the report phase, so a
	// collection the run left pending does not land in report_s.
	runtime.GC()
	t0 = time.Now()
	r.Model, r.CoverageS = in.reduce()
	r.ReportS = time.Since(t0).Seconds()

	if err := in.conserve(); err != nil {
		return r, fmt.Errorf("conservation: %w", err)
	}
	if t != nil {
		c, s, err := t.collect(in)
		if err != nil {
			return r, err
		}
		r.Trace, r.Spans = &c, &s
	}
	return r, nil
}

// collect reads the traced run's wrappers and the layers' own counters.
func (t *tracer) collect(in *instance) (traceCounts, traceSpans, error) {
	b := t.ingress
	pick := in.fed.Door.Policy().(*routingSpan).pick
	supply := t.supplyTotal()
	c := traceCounts{
		Events:       t.events,
		PendingMax:   t.pendingMax,
		IngressCalls: b.invoke.calls,
		DoneCalls:    b.complete.calls,
		Picks:        pick.calls,
		SupplyCalls:  supply.calls,
		Spilled:      in.fed.Door.Spilled,
		NoSitePicks:  in.fed.Door.NoSitePicks,
		Cold:         b.cold,
		Executed:     b.executed,
		Requeues:     b.requeues,
	}
	if b.executed > 0 {
		c.RouteP50ms = 1000 * b.route.Median()
		c.QueueStartP50ms = 1000 * b.queueStart.Median()
		c.ExecEgressP50ms = 1000 * b.execEgress.Median()
	}
	for _, s := range in.fed.Sites {
		c.N503 += s.Ctrl.N503
		c.Timeouts += s.Ctrl.NTimeout
		c.Failed += s.Ctrl.NFailed
		c.MovedToFastLane += s.Ctrl.MovedToFL
		c.BusPublished += s.Bus.Published
		c.BusMoved += s.Bus.Moved
		c.Preempted += s.Slurm.Preempted
		c.PilotsStarted += s.Manager.PilotsStarted
		c.Handoffs += s.Manager.Handoffs
		c.Dumps += s.Ctrl.Work.Checkpoints
		c.Resumes += s.Ctrl.Work.Resumed
		c.WastedS += s.Ctrl.Work.Wasted.Seconds()
	}
	if c.IngressCalls != in.gen.Issued || c.DoneCalls != in.gen.Completed || c.Picks != c.IngressCalls {
		return c, traceSpans{}, fmt.Errorf("wrappers saw %d calls, %d completions, %d picks for %d issued, %d completed",
			c.IngressCalls, c.DoneCalls, c.Picks, in.gen.Issued, in.gen.Completed)
	}
	s := traceSpans{
		Ingress: b.invoke.seconds(),
		Done:    b.complete.seconds(),
		Pick:    pick.seconds(),
		Supply:  supply.seconds(),
	}
	return c, s, nil
}
