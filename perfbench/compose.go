package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// drain is the post-horizon window both program entry points
// (experiments.RunDayCtx and RunFederatedCtx) give in-flight work.
const drain = 5 * time.Minute

// plan is one workload reduced to the inputs of the layers it drives:
// per-site deployment and idle-trace configs, routing, sharding, and
// the load. planDay and planFederated mirror what the program's entry
// points derive from their configs; TestCompositionMatchesEntryPoints
// keeps the two from drifting apart.
type plan struct {
	sites   []sitePlan
	routing string // "" is core.DefaultRouting
	shards  int

	// perSiteLatencies mirrors RunFederatedCtx, which buffers every
	// site's latencies at the front door for its per-site tails.
	perSiteLatencies bool

	qps          float64
	actions      int
	sleepExec    time.Duration
	ckptInterval time.Duration
	horizon      time.Duration

	// coverageSet is the clairvoyant job-length set a day run reduces
	// its trace against (Table II); nil on federated runs.
	coverageSet *coverage.Set
}

// sitePlan is one site: its deployment config (built fresh per run,
// because supply-policy instances are stateful) and its idle trace.
type sitePlan struct {
	nodes            int
	policy           string
	seed             int64
	gracefulHandoff  bool
	interruptRunning bool
	actionTimeout    time.Duration
	trace            workload.IdleProcessConfig
}

// siteConfig builds the deployment config the way the entry points do.
func (s sitePlan) siteConfig() core.SiteConfig {
	sc := core.DefaultSystemConfig(s.nodes, s.policy)
	sc.Seed = s.seed
	sc.Manager.GracefulHandoff = s.gracefulHandoff
	sc.Manager.InterruptRunning = s.interruptRunning
	if s.actionTimeout > 0 {
		sc.Controller.ActionTimeout = s.actionTimeout
	}
	return sc
}

// planDay mirrors experiments.RunDayCtx: a 1-site federation on the
// day's calibrated trace.
func planDay(cfg experiments.DayConfig) plan {
	set := coverage.Set{Name: "A1", Lengths: core.SetA1}
	if cfg.PolicyName() == "var" {
		set = coverage.TableISets()[5] // C2
	}
	return plan{
		sites: []sitePlan{{
			nodes:            cfg.Nodes,
			policy:           cfg.PolicyName(),
			seed:             cfg.Seed + 1000,
			gracefulHandoff:  cfg.GracefulHandoff,
			interruptRunning: cfg.InterruptRunning,
			actionTimeout:    cfg.ActionTimeout,
			trace:            cfg.TraceConfig(),
		}},
		shards:       cfg.Shards,
		qps:          cfg.QPS,
		actions:      cfg.NumActions,
		sleepExec:    cfg.SleepExec,
		ckptInterval: cfg.CheckpointInterval,
		horizon:      cfg.Horizon,
		coverageSet:  &set,
	}
}

// planFederated mirrors one routing run of experiments.RunFederatedCtx:
// alternating calm (fib-day) and contended (var-day) sites, per-site
// seeds drawn sequentially from one root, idle surfaces scaled to the
// member-cluster size.
func planFederated(cfg experiments.FederatedConfig, routing string) plan {
	root := dist.NewRand(cfg.Seed)
	p := plan{
		routing:          routing,
		shards:           cfg.Shards,
		perSiteLatencies: true,
		qps:              cfg.QPS,
		actions:          cfg.NumActions,
		sleepExec:        cfg.SleepExec,
		horizon:          cfg.Horizon,
	}
	def := core.DefaultManagerConfig(cfg.Policy)
	for i := 0; i < cfg.Sites; i++ {
		var day experiments.DayConfig
		if i%2 == 1 {
			day = experiments.VarDay(root.Int63())
		} else {
			day = experiments.FibDay(root.Int63())
		}
		tr := day.TraceConfig()
		tr.Nodes = cfg.NodesPerSite
		tr.Horizon = cfg.Horizon
		tr.MeanIdleNodes = day.MeanIdleNodes * float64(cfg.NodesPerSite) / float64(day.Nodes)
		if tr.MeanIdleNodes < 8 {
			tr.MeanIdleNodes = 8
		}
		p.sites = append(p.sites, sitePlan{
			nodes:            cfg.NodesPerSite,
			policy:           cfg.Policy,
			seed:             day.Seed + 1000,
			gracefulHandoff:  def.GracefulHandoff,
			interruptRunning: def.InterruptRunning,
			trace:            tr,
		})
	}
	return p
}

// hooks are the layer-boundary wrappers of a traced run; the zero
// value (an untraced run) wires the layers directly.
type hooks struct {
	backend func(loadgen.Backend) loadgen.Backend
	routing func(string) string
	supply  func(core.SiteConfig) core.SiteConfig
}

// instance is one built workload, ready to run.
type instance struct {
	p      plan
	fed    *core.Federation
	gen    *loadgen.Generator
	traces []*workload.Trace

	generateS   float64 // trace generation share of set-up
	idlePeriods int
}

// setup builds the workload up to the instant its first event can
// fire: trace generation, site construction, trace load, action
// registration, load generator and site start.
func setup(p plan, h hooks) *instance {
	in := &instance{p: p}
	t0 := time.Now()
	for _, s := range p.sites {
		tr := s.trace.Generate()
		in.traces = append(in.traces, tr)
		in.idlePeriods += len(tr.Periods)
	}
	in.generateS = time.Since(t0).Seconds()

	sites := make([]core.SiteConfig, len(p.sites))
	for i, s := range p.sites {
		sites[i] = s.siteConfig()
		if h.supply != nil {
			sites[i] = h.supply(sites[i])
		}
	}
	routing := p.routing
	if routing == "" {
		routing = core.DefaultRouting
	}
	if h.routing != nil {
		routing = h.routing(routing)
	}
	in.fed = core.NewFederation(core.FederationConfig{Sites: sites, Routing: routing, Shards: p.shards})
	if p.perSiteLatencies {
		in.fed.Door.CollectLatencies(true)
	}
	for i, tr := range in.traces {
		in.fed.LoadTrace(i, tr)
	}
	names := loadgen.ActionNames("sleep", p.actions)
	for _, name := range names {
		in.fed.RegisterAction(&whisk.Action{
			Name:          name,
			MemoryMB:      256,
			Exec:          whisk.FixedExec(p.sleepExec),
			Interruptible: true,
			Checkpoint:    checkpoint.WithInterval(p.ckptInterval),
		})
	}
	var backend loadgen.Backend = in.fed
	if h.backend != nil {
		backend = h.backend(backend)
	}
	in.gen = loadgen.New(in.fed.Sim, backend, loadgen.Config{
		QPS: p.qps, Actions: names, Duration: p.horizon, BucketLen: time.Minute,
	})
	in.gen.Start()
	in.fed.Start()
	return in
}

// run simulates the horizon plus the drain, as the entry points do.
func (in *instance) run(ctx context.Context) error {
	if err := in.fed.RunCtx(ctx, in.p.horizon, 0, nil); err != nil {
		return err
	}
	return in.fed.RunCtx(ctx, drain, 0, nil)
}

// modelled is what the benchmark reports about the modelled system. It
// is a pure function of the workload and seed, so any two runs of one
// seed — repeated, traced, sharded — must agree on every field.
type modelled struct {
	Issued   int
	Success  int
	N503     int
	Timeouts int
	Failed   int
	InFlight int

	SuccessPct  float64
	P50ms       float64
	P999ms      float64
	CoveragePct float64
	GoodputPct  float64
	SimBoundPct float64 // clairvoyant coverage bound; day workloads only
}

// reduce runs the result reducers the entry points run: the loadgen
// report with exact quantiles, per-site Slurm-level and worker-state
// statistics (with the federated per-site tails and merged healthy
// series on multi-site runs), and coverage.Simulate on day runs. It
// also returns the seconds coverage.Simulate took.
func (in *instance) reduce() (m modelled, coverageS float64) {
	fed, gen := in.fed, in.gen
	rep := gen.Report()
	m = modelled{
		Issued:   gen.Issued,
		Success:  rep.Totals[loadgen.LabelSuccess],
		N503:     rep.Totals[loadgen.Label503],
		Timeouts: rep.Totals[loadgen.LabelLost],
		Failed:   rep.Totals[loadgen.LabelFailed],
		InFlight: gen.Issued - gen.Completed,
	}
	if m.Issued > 0 {
		m.SuccessPct = 100 * float64(m.Success) / float64(m.Issued)
	}
	if gen.Latencies.Len() > 0 {
		m.P50ms = 1000 * gen.Latencies.Quantile(0.50)
		m.P999ms = 1000 * gen.Latencies.Quantile(0.999)
	}

	end := fed.Sim.Now()
	var cov, covered, nodes float64
	var work stats.WorkCounters
	healthy := make([]*stats.TimeWeighted, 0, len(fed.Sites))
	for i, site := range fed.Sites {
		site.Manager.OWStats(end)
		cov = site.Logger.Stats().ShareUsed
		covered += cov * float64(in.p.sites[i].nodes)
		nodes += float64(in.p.sites[i].nodes)
		work.Merge(site.Ctrl.Work)
		if lat := fed.Door.LatencyBySite[i]; lat != nil && lat.Len() > 0 {
			lat.Quantile(0.50)
			lat.Quantile(0.95)
			lat.Quantile(0.99)
		}
		if tw, ok := site.Manager.States.Healthy.(*stats.TimeWeighted); ok {
			healthy = append(healthy, tw)
		}
	}
	if len(fed.Sites) > 1 && len(healthy) == len(fed.Sites) {
		stats.SumTimeWeighted(healthy...).TimeMean()
	}
	// A day reports its one site's share as is; weighting a single
	// site by its node count would only add rounding.
	if len(fed.Sites) == 1 {
		m.CoveragePct = 100 * cov
	} else {
		m.CoveragePct = 100 * covered / nodes
	}
	m.GoodputPct = 100 * work.GoodputShare()

	if in.p.coverageSet != nil {
		t0 := time.Now()
		sim := coverage.Simulate(in.traces[0], *in.p.coverageSet, coverage.DefaultConfig())
		coverageS = time.Since(t0).Seconds()
		m.SimBoundPct = 100 * sim.Coverage()
	}
	return m, coverageS
}

// conserve checks request conservation across the load generator, the
// front door and every site controller: each issued request reached
// exactly one controller and ended in exactly one outcome, or is still
// in flight.
func (in *instance) conserve() error {
	gen, door := in.gen, in.fed.Door
	var total, ok, n503, timeouts, failed int
	for _, s := range in.fed.Sites {
		c := s.Ctrl
		total += c.Total
		ok += c.NSuccess
		n503 += c.N503
		timeouts += c.NTimeout
		failed += c.NFailed
	}
	totals := gen.Series.Totals()
	inFlight := gen.Issued - gen.Completed
	switch {
	case door.Issued != gen.Issued:
		return fmt.Errorf("front door saw %d requests, load generator issued %d", door.Issued, gen.Issued)
	case total != gen.Issued:
		return fmt.Errorf("controllers admitted %d requests, load generator issued %d", total, gen.Issued)
	case inFlight < 0:
		return fmt.Errorf("%d completions for %d issued requests", gen.Completed, gen.Issued)
	case ok+n503+timeouts+failed+inFlight != gen.Issued:
		return fmt.Errorf("issued %d != success %d + 503 %d + timeout %d + failed %d + in-flight %d",
			gen.Issued, ok, n503, timeouts, failed, inFlight)
	case totals[loadgen.LabelSuccess] != ok || totals[loadgen.Label503] != n503 ||
		totals[loadgen.LabelLost] != timeouts || totals[loadgen.LabelFailed] != failed:
		return fmt.Errorf("client outcomes %v disagree with controllers (success %d, 503 %d, timeout %d, failed %d)",
			totals, ok, n503, timeouts, failed)
	case gen.Latencies.Len() != ok:
		return fmt.Errorf("%d latency samples for %d successes", gen.Latencies.Len(), ok)
	}
	return nil
}
