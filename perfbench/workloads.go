package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// workloadDef is one benchmark workload: its default seed (the seed
// the repository's existing benchmark or CI smoke runs it at) and the
// program config it runs — a production day (experiments.RunDayCtx) or
// a federated run under one routing policy (RunFederatedCtx).
type workloadDef struct {
	name        string
	defaultSeed int64
	day         func(seed int64) experiments.DayConfig
	fed         func(seed int64) experiments.FederatedConfig

	// seeds is how many workload seeds one measured run simulates. The
	// modelled metrics of a single seed vary across seeds more than
	// host time varies across repetitions (fib-day's median latency
	// swings between about 0.8 s and 1.2 s with its cold-start share;
	// one ckpt-churn seed in three has a p99.9 half again as long), so
	// a run reports their mean over as many seeds as fit its budget.
	seeds int
}

// build returns the workload's plan for a seed, run sequentially or
// under the pdes coordinator.
func (w workloadDef) build(seed int64, sharded bool) plan {
	if w.day != nil {
		c := w.day(seed)
		if sharded {
			c.Shards = shardCount(1)
		}
		return planDay(c)
	}
	c := w.fed(seed)
	if sharded {
		c.Shards = shardCount(c.Sites)
	}
	return planFederated(c, c.Routing[0])
}

// seedStride separates the seeds of one run, so the runs of nearby
// benchmark seeds share no workload seed.
const seedStride = 1_000_003

// seedsOf returns the workload seeds a run with benchmark seed n
// simulates; the first is n itself.
func (w workloadDef) seedsOf(n int64) []int64 {
	out := make([]int64, w.seeds)
	for i := range out {
		out[i] = n + int64(i)*seedStride
	}
	return out
}

// fedPeakHorizon is the simulated span of fed-peak. The CI smoke runs
// a full hour (3.6 M requests, 10-15 s of host time per run); half an
// hour keeps the same steady state — the 60 s timeouts pending at
// depth, every site's pilot supply running — at a host cost that fits
// four repetitions into one measured run. A quarter hour would be
// cheaper still, but its tail latency and coverage swing by a quarter
// from seed to seed, because the start-up ramp weighs twice as much.
const fedPeakHorizon = 30 * time.Minute

// shardCount is the Shards of a sharded run: one shard worker per CPU
// up to one per site, and never fewer than two, so the pdes coordinator
// runs even on a one-CPU host (a 1-site day runs one worker).
func shardCount(sites int) int {
	n := min(runtime.NumCPU(), sites)
	return max(n, 2)
}

// ckptChurnDay is BenchmarkCheckpointDay's calibration stretched to a
// full day: a contended 64-node cluster, 500 ms bodies checkpointed
// every 100 ms.
func ckptChurnDay(seed int64) experiments.DayConfig {
	cfg := experiments.FibDay(seed)
	cfg.Nodes = 64
	cfg.MeanIdleNodes = 6
	cfg.SaturatedFraction = 0.02
	cfg.QPS = 5
	cfg.NumActions = 50
	cfg.SleepExec = 500 * time.Millisecond
	cfg.CheckpointInterval = 100 * time.Millisecond
	return cfg
}

// fedPeakConfig is the CI big-cluster smoke: 4 sites × 4096 nodes at
// 1000 QPS behind capacity-weighted routing.
func fedPeakConfig(seed int64) experiments.FederatedConfig {
	cfg := experiments.DefaultFederatedConfig(seed)
	cfg.NodesPerSite = 4096
	cfg.QPS = 1000
	cfg.Horizon = fedPeakHorizon
	cfg.Routing = []string{"capacity-weighted"}
	return cfg
}

// workloads lists the benchmark's workloads; README.md gives the
// reason for each.
var workloads = []workloadDef{
	{name: "fib-day", defaultSeed: 1, seeds: 8, day: experiments.FibDay},
	{name: "fed-peak", defaultSeed: 3, seeds: 3, fed: fedPeakConfig},
	{name: "ckpt-churn", defaultSeed: 5, seeds: 9, day: ckptChurnDay},
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
