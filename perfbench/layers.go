package main

// layerMetrics derives the per-layer metrics from a traced run: owns
// are the workload's untraced repetitions, shardeds the same seed's
// untraced repetitions under the pdes coordinator, traces the traced
// repetitions. Every ratio is reported beside its bases.
func layerMetrics(owns, shardeds, traces []repResult) []metric {
	c := *traces[0].Trace
	own := owns[0]

	seqRun := median(owns, func(r repResult) float64 { return r.RunS })
	shardedRun := median(shardeds, func(r repResult) float64 { return r.RunS })
	tracedRun := median(traces, func(r repResult) float64 { return r.RunS })
	span := func(f func(traceSpans) float64) float64 {
		return median(traces, func(r repResult) float64 { return f(*r.Spans) })
	}
	ingress := span(func(s traceSpans) float64 { return s.Ingress })
	done := span(func(s traceSpans) float64 { return s.Done })
	pick := span(func(s traceSpans) float64 { return s.Pick })
	supply := span(func(s traceSpans) float64 { return s.Supply })
	selfS := median(traces, func(r repResult) float64 {
		return r.RunS - r.Spans.Ingress - r.Spans.Done - r.Spans.Supply
	})

	issued := float64(own.Model.Issued)
	perCall := func(s float64, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return 1e9 * s / float64(calls)
	}
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}

	return []metric{
		{"des.events", "count", float64(c.Events)},
		{"des.events_per_req", "events/req", float64(c.Events) / issued},
		{"des.pending_max", "count", float64(c.PendingMax)},
		{"des.ns_per_event", "ns/event", perCall(seqRun, c.Events)},
		{"untraced.run_s", "s", seqRun},
		{"traced.run_s", "s", tracedRun},
		{"trace.overhead_pct", "%", 100 * (tracedRun/seqRun - 1)},
		{"sim.self_s", "s", selfS},

		{"ingress.calls", "count", float64(c.IngressCalls)},
		{"ingress.span_s", "s", ingress},
		{"ingress.ns_per_call", "ns/call", perCall(ingress, c.IngressCalls)},
		{"router.picks", "count", float64(c.Picks)},
		{"router.pick_span_s", "s", pick},
		{"router.pick_ns_per_call", "ns/call", perCall(pick, c.Picks)},
		{"router.spill_pct", "%", pct(c.Spilled, c.Picks)},
		{"router.nosite_picks", "count", float64(c.NoSitePicks)},
		{"loadgen.done_calls", "count", float64(c.DoneCalls)},
		{"loadgen.done_span_s", "s", done},
		{"loadgen.done_ns_per_call", "ns/call", perCall(done, c.DoneCalls)},
		{"go.mallocs", "count", median(owns, func(r repResult) float64 { return float64(r.Mallocs) })},
		{"go.allocs_per_req", "allocs/req", median(owns, func(r repResult) float64 { return float64(r.Mallocs) }) / issued},
		{"go.gc_cycles", "count", median(owns, func(r repResult) float64 { return float64(r.GCCycles) })},

		{"policy.calls", "count", float64(c.SupplyCalls)},
		{"policy.span_s", "s", supply},
		{"policy.ns_per_call", "ns/call", perCall(supply, c.SupplyCalls)},

		{"whisk.cold_pct", "%", pct(c.Cold, c.Executed)},
		{"whisk.requeues", "count", float64(c.Requeues)},
		{"whisk.n503", "count", float64(c.N503)},
		{"whisk.timeouts", "count", float64(c.Timeouts)},
		{"whisk.failed", "count", float64(c.Failed)},
		{"whisk.moved_to_fastlane", "count", float64(c.MovedToFastLane)},
		{"bus.published", "count", float64(c.BusPublished)},
		{"bus.moved", "count", float64(c.BusMoved)},
		{"hop.route_p50_ms", "ms", c.RouteP50ms},
		{"hop.queue_start_p50_ms", "ms", c.QueueStartP50ms},
		{"hop.exec_egress_p50_ms", "ms", c.ExecEgressP50ms},

		{"slurm.preempted", "count", float64(c.Preempted)},
		{"core.pilots_started", "count", float64(c.PilotsStarted)},
		{"core.handoffs", "count", float64(c.Handoffs)},
		{"checkpoint.dumps", "count", float64(c.Dumps)},
		{"checkpoint.resumes", "count", float64(c.Resumes)},
		{"checkpoint.wasted_s", "s", c.WastedS},

		{"workload.generate_s", "s", median(owns, func(r repResult) float64 { return r.GenerateS })},
		{"workload.idle_periods", "count", float64(own.IdlePeriods)},
		{"coverage.simulate_s", "s", median(owns, func(r repResult) float64 { return r.CoverageS })},
		{"stats.report_s", "s", median(owns, func(r repResult) float64 { return r.ReportS - r.CoverageS })},
		{"stats.latency_samples", "count", float64(own.Model.Success)},

		{"pdes.seq_run_s", "s", seqRun},
		{"pdes.sharded_run_s", "s", shardedRun},
		{"pdes.speedup", "x", seqRun / shardedRun},
	}
}
