package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// A traced run wraps the layer boundaries reachable from outside the
// program — the load generator's backend (front door plus controller
// admission), its completion callback, the routing policy, and every
// site's supply policy — and drives the shared event plane with
// Sim.Step so events and queue depth can be counted. Each wrapper only
// records and delegates: the traced run's modelled output must equal
// the untraced run's, and the benchmark checks that it does.

// span accumulates one boundary's call count and wall time.
type span struct {
	calls int
	ns    int64
}

func (s *span) add(t0 time.Time) {
	s.calls++
	s.ns += int64(time.Since(t0))
}

func (s span) seconds() float64 { return float64(s.ns) / 1e9 }

// ingress wraps the load generator's backend: Invoke times the front
// door and controller admission; the completion wrapper times the load
// generator's own callback and reads the finished invocation.
type ingress struct {
	inner  loadgen.Backend
	done   func(*whisk.Invocation)
	doneFn func(*whisk.Invocation)

	invoke, complete span

	cold, executed, requeues      int
	route, queueStart, execEgress stats.Sample
}

func newIngress(inner loadgen.Backend) *ingress {
	b := &ingress{inner: inner}
	b.doneFn = b.onDone
	return b
}

// Invoke implements loadgen.Backend. The generator hands the same
// completion callback to every call, so keeping the latest is enough.
func (b *ingress) Invoke(action string, done func(*whisk.Invocation)) {
	b.done = done
	t0 := time.Now()
	b.inner.Invoke(action, b.doneFn)
	b.invoke.add(t0)
}

func (b *ingress) onDone(inv *whisk.Invocation) {
	b.requeues += inv.Requeues
	if inv.Status == whisk.StatusSuccess {
		b.executed++
		if inv.ColdStart {
			b.cold++
		}
		b.route.AddDuration(inv.Routed - inv.Submitted)
		b.queueStart.AddDuration(inv.Executed - inv.Routed)
		b.execEgress.AddDuration(inv.Completed - inv.Executed)
	}
	t0 := time.Now()
	b.done(inv)
	b.complete.add(t0)
}

// tracedRoutingPrefix names the benchmark's routing wrappers in the
// router registry: tracedRoutingPrefix+name delegates to policy name.
const tracedRoutingPrefix = "perfbench.traced/"

var registerRouting sync.Once

// tracedRouting registers one timing wrapper per routing policy known
// at start-up and returns the wrapper's name for the given policy.
func tracedRouting(name string) string {
	registerRouting.Do(func() {
		for _, n := range router.Names() {
			inner := n
			router.Register(tracedRoutingPrefix+inner, func() router.RoutingPolicy {
				return &routingSpan{inner: router.MustNew(inner)}
			})
		}
	})
	return tracedRoutingPrefix + name
}

// routingSpan times every Pick of the policy it wraps.
type routingSpan struct {
	inner router.RoutingPolicy
	pick  span
}

func (r *routingSpan) Name() string { return r.inner.Name() }
func (r *routingSpan) Init(n int)   { r.inner.Init(n) }

func (r *routingSpan) Pick(v router.View, action string, home int) int {
	t0 := time.Now()
	site := r.inner.Pick(v, action, home)
	r.pick.add(t0)
	return site
}

// supplySpan times every decision of one site's supply policy.
type supplySpan struct {
	inner policy.SupplyPolicy
	calls span
}

func (s *supplySpan) Name() string        { return s.inner.Name() }
func (s *supplySpan) Init(rng *rand.Rand) { s.inner.Init(rng) }

func (s *supplySpan) Replenish(env policy.Env) {
	t0 := time.Now()
	s.inner.Replenish(env)
	s.calls.add(t0)
}

func (s *supplySpan) PilotStarted(env policy.Env) {
	t0 := time.Now()
	s.inner.PilotStarted(env)
	s.calls.add(t0)
}

func (s *supplySpan) PilotEnded(env policy.Env, end policy.PilotEnd) {
	t0 := time.Now()
	s.inner.PilotEnded(env, end)
	s.calls.add(t0)
}

// tracer holds the wrappers of one traced run.
type tracer struct {
	ingress *ingress
	supply  []*supplySpan

	events     int
	pendingMax int
}

func (t *tracer) hooks() hooks {
	return hooks{
		backend: func(b loadgen.Backend) loadgen.Backend {
			t.ingress = newIngress(b)
			return t.ingress
		},
		routing: tracedRouting,
		supply: func(sc core.SiteConfig) core.SiteConfig {
			s := &supplySpan{inner: sc.Manager.Policy}
			t.supply = append(t.supply, s)
			sc.Manager.Policy = s
			return sc
		},
	}
}

// stepTo fires, one Step at a time, every event at or before end on a
// sequential federation's shared plane, counting events and sampling
// the live queue depth after each. Step skips the lazy heap compaction
// RunUntil performs, so the traced run's host time is not comparable
// to an untraced run's; its firing order — the (when, seq) total order
// — is the same, so the modelled output is.
func (t *tracer) stepTo(sim *des.Sim, end des.Time) {
	for {
		at, ok := sim.NextAt()
		if !ok || at > end {
			break
		}
		sim.Step()
		t.events++
		if p := sim.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
	}
	sim.RunUntil(end) // nothing left at or before end: only the clock moves
}

// run is the traced counterpart of instance.run.
func (t *tracer) run(in *instance) {
	sim := in.fed.Sim
	t.stepTo(sim, sim.Now()+in.p.horizon)
	t.stepTo(sim, sim.Now()+drain)
}

// supplySpan sums the supply-policy spans of every site.
func (t *tracer) supplyTotal() span {
	var s span
	for _, p := range t.supply {
		s.calls += p.calls.calls
		s.ns += p.calls.ns
	}
	return s
}
