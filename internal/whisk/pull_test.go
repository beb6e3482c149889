package whisk

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/dist"
)

// pollShadow is the always-on poll ticker that event-driven pulls
// replaced, kept as a read-only oracle: one sim.Every(PollInterval) per
// invoker, started at attach, that fires wherever the old ticker
// polled. Whenever it finds work (poll's idle early return would fail),
// the invoker must poll at that same instant: either its tick already
// fired in this instant or it is pending for it. The shadow only reads
// state, so it cannot perturb the run it watches.
type pollShadow struct {
	working int // shadow ticks that found work
	misses  int // ... at which the invoker did not poll in that instant
	first   string
}

// watch starts the shadow ticker of w. Call it in the instant w
// registers, so the shadow shares w's attach-phase grid.
func (s *pollShadow) watch(sim *des.Sim, w *Invoker) {
	var tk *des.Ticker
	tk = sim.Every(w.cfg.PollInterval, func() {
		if w.state != InvokerHealthy || !w.slotted {
			tk.Stop() // the always-on ticker stopped here too
			return
		}
		if !w.hasWork() {
			return
		}
		s.working++
		now := sim.Now()
		polledNow := w.nextTick == now+w.cfg.PollInterval
		pendingNow := w.pollEv.Pending() && w.pollEv.When() == now
		if !polledNow && !pendingNow {
			if s.misses == 0 {
				s.first = fmt.Sprintf("invoker %d at %v: buffer=%d topic=%d fastlane=%d pending=%v",
					w.slot, now, len(w.buffer), w.topic.Len(), w.ctrl.fastLane.Len(), w.pollEv.Pending())
			}
			s.misses++
		}
	})
}

// check fails t on any miss, and on a vacuous run.
func (s *pollShadow) check(t *testing.T) {
	t.Helper()
	if s.working == 0 {
		t.Fatal("the shadow never found work — the comparison would be vacuous")
	}
	if s.misses != 0 {
		t.Fatalf("%d of %d working shadow ticks found no poll in the same instant; first: %s",
			s.misses, s.working, s.first)
	}
}

// checkPollArmed asserts the arming invariant between operations: a
// slotted healthy invoker with anything to pull has its poll pending.
func checkPollArmed(t *testing.T, c *Controller, op int) {
	t.Helper()
	for _, w := range c.slots {
		if w != nil && w.state == InvokerHealthy && w.hasWork() && !w.pollEv.Pending() {
			t.Fatalf("op %d: invoker %d has work (buffer=%d topic=%d fastlane=%d) but no poll armed",
				op, w.slot, len(w.buffer), w.topic.Len(), c.fastLane.Len())
		}
	}
}

// TestEventDrivenPollMatchesAlwaysOnShadow replays every storm seed of
// TestStormPooledMatchesUnpooledEventLog with the shadow ticker
// watching every invoker: zero misses, and the shadowed run's
// completion log equals the unshadowed one.
func TestEventDrivenPollMatchesAlwaysOnShadow(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var shadow pollShadow
			watched := stormLog(t, true, seed, &shadow)
			shadow.check(t)
			plain := stormLog(t, true, seed, nil)
			if fmt.Sprint(watched) != fmt.Sprint(plain) {
				t.Fatal("the shadow perturbed the storm's completion log")
			}
			t.Logf("%d working shadow ticks, 0 misses", shadow.working)
		})
	}
}

// TestIdleStormWakesOnFastLane is the sparse-load counterpart: many
// invokers idle almost all the time, light traffic, and a steady trickle
// of SIGTERM hand-offs (with interrupts) whose fast-lane requeues must
// wake dormant invokers. The shadow watches all of them; the arming
// invariant is checked after every operation.
func TestIdleStormWakesOnFastLane(t *testing.T) {
	sim := des.New()
	b := bus.New(sim, nil, 11)
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = true
	c := NewController(sim, b, cfg, 12)
	for i := 0; i < 4; i++ {
		c.RegisterAction(&Action{
			Name:          fmt.Sprintf("sparse-%d", i),
			MemoryMB:      256,
			Exec:          DistExec(dist.Uniform{Lo: 0.5, Hi: 30}),
			Interruptible: i != 3,
		})
	}
	rng := dist.NewRand(13)
	var shadow pollShadow
	var invokers []*Invoker
	register := func() {
		w := NewInvoker(DefaultInvokerConfig(), rng.Int63())
		c.Register(w)
		shadow.watch(sim, w)
		invokers = append(invokers, w)
	}
	for i := 0; i < 48; i++ {
		register()
		sim.RunFor(time.Duration(rng.Intn(100)) * time.Millisecond) // spread the grid phases
	}
	for op := 0; op < 600; op++ {
		switch rng.Intn(8) {
		case 0: // hand-off from a random busy invoker, then a replacement
			for _, w := range invokers {
				if w.State() == InvokerHealthy && w.Running() > 0 {
					w.Sigterm(true, nil)
					register()
					break
				}
			}
		default:
			c.Invoke(fmt.Sprintf("sparse-%d", rng.Intn(4)), nil)
		}
		sim.RunFor(time.Duration(rng.Intn(20000)) * time.Millisecond)
		checkPollArmed(t, c, op)
	}
	sim.RunFor(cfg.ActionTimeout + time.Minute)
	shadow.check(t)
	if c.MovedToFL == 0 {
		t.Fatal("no fast-lane hand-off happened — the wake path went untested")
	}
	if c.Total != c.NSuccess+c.NFailed+c.NTimeout+c.N503 {
		t.Fatalf("leaked invocations: total=%d", c.Total)
	}
	t.Logf("%d working shadow ticks, 0 misses, %d fast-lane moves", shadow.working, c.MovedToFL)
}

// TestIdleInvokersQuiesce: registered invokers without load schedule
// nothing after their first poll tick, so Run returns.
func TestIdleInvokersQuiesce(t *testing.T) {
	sim, _, ws := newSystem(64)
	if got := sim.Pending(); got != 64 {
		t.Fatalf("pending after registration = %d, want one first tick each (64)", got)
	}
	sim.RunFor(ws[0].cfg.PollInterval)
	if got := sim.Pending(); got != 0 {
		t.Fatalf("pending after one idle PollInterval = %d, want 0", got)
	}
	at := sim.Now()
	sim.Run() // returns: nothing is pending
	if sim.Now() != at {
		t.Errorf("Run moved the clock from %v to %v", at, sim.Now())
	}
}

// TestPendingReturnsToZeroAfterLoad: once a few invocations complete,
// the invokers go dormant again and the queue drains completely.
func TestPendingReturnsToZeroAfterLoad(t *testing.T) {
	sim, c, _ := newSystem(4)
	c.RegisterAction(sleepAction("q"))
	sim.RunFor(time.Second)
	done := 0
	for i := 0; i < 5; i++ {
		c.Invoke("q", func(*Invocation) { done++ })
	}
	sim.RunFor(10 * time.Second)
	if done != 5 {
		t.Fatalf("completed %d of 5", done)
	}
	if got := sim.Pending(); got != 0 {
		t.Fatalf("pending after the load completed = %d, want 0", got)
	}
}

// TestDormantInvokerPullsFastLaneOnItsGrid: a neighbour's SIGTERM
// requeues an interrupted execution onto the fast lane; an invoker that
// has been dormant for minutes pulls it at exactly its next grid
// instant (attach + k·PollInterval) — and in the same instant when the
// hand-off lands on the grid.
func TestDormantInvokerPullsFastLaneOnItsGrid(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset time.Duration // hand-off instant relative to the dormant invoker's grid
	}{
		{"off-grid", 37 * time.Millisecond},
		{"on-grid", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			cfg := DefaultControllerConfig()
			cfg.ActionTimeout = time.Hour // the requeued call is still live
			c := NewController(sim, bus.New(sim, nil, 1), cfg, 2)
			c.RegisterAction(&Action{Name: "long", Exec: FixedExec(10 * time.Minute), Interruptible: true})
			a, d := NewInvoker(DefaultInvokerConfig(), 3), NewInvoker(DefaultInvokerConfig(), 4)
			c.Register(a)
			sim.RunFor(13 * time.Millisecond) // d's grid is out of phase with a's
			c.Register(d)
			attachD := sim.Now()
			owner, idle := a, d
			if c.pickInvoker(c.Action("long")) == d {
				owner, idle = d, a
			}
			c.Invoke("long", nil)
			sim.RunFor(3 * time.Minute)
			if owner.Running() != 1 || idle.pollEv.Pending() {
				t.Fatalf("setup: owner running %d, idle invoker armed %v", owner.Running(), idle.pollEv.Pending())
			}
			p := idle.cfg.PollInterval
			phase := attachD
			if idle == a {
				phase = 0
			}
			grid := func(t des.Time) des.Time { return phase + (t-phase+p-1)/p*p }
			handoff := grid(sim.Now()) + tc.offset
			sim.RunUntil(handoff)
			owner.Sigterm(true, nil)
			if c.FastLane().Len() != 1 {
				t.Fatalf("fast lane = %d after the hand-off, want 1", c.FastLane().Len())
			}
			want := grid(handoff)
			if !idle.pollEv.Pending() || idle.pollEv.When() != want {
				t.Fatalf("idle invoker armed %v at %v, want its next grid instant %v",
					idle.pollEv.Pending(), idle.pollEv.When(), want)
			}
			if want > handoff {
				sim.RunUntil(want - 1)
				if c.FastLane().Len() != 1 {
					t.Fatalf("fast lane pulled before the grid instant %v", want)
				}
			}
			sim.RunUntil(want)
			if c.FastLane().Len() != 0 || idle.Running() != 1 {
				t.Fatalf("at %v: fast lane %d, idle invoker running %d — want pulled and running",
					want, c.FastLane().Len(), idle.Running())
			}
		})
	}
}

// TestFastLaneWakePathSteadyStateAllocs pins the wake path at zero
// allocations: each run invokes once, the delivery to the invoker's
// topic is requeued onto the fast lane (as a hand-off would), the
// fast-lane hook re-arms the dormant invoker, and its poll tick pulls
// and executes the message.
func TestFastLaneWakePathSteadyStateAllocs(t *testing.T) {
	sim, c, w := pooledRig(t)
	sim.RunFor(time.Second) // past the first tick: the invoker is dormant
	var scratch []*bus.Message
	w.topic.OnDelivery(func() {
		scratch = w.topic.PullAppend(scratch[:0], w.cfg.PullBatch)
		c.requeueFastLane(scratch)
		clear(scratch)
	})
	run := func() {
		if w.pollEv.Pending() {
			t.Fatal("invoker armed before the run: not dormant")
		}
		c.Invoke("f", nil)
		sim.RunFor(5 * time.Second)
	}
	for i := 0; i < 3; i++ {
		run() // warm invocation, message, and des pools
	}
	allocs := testing.AllocsPerRun(200, run)
	if allocs != 0 {
		t.Errorf("dormant → fast-lane requeue → re-arm → tick allocates %.2f objects/run, want 0", allocs)
	}
	const want = 3 + 1 + 200 // warm-ups, AllocsPerRun's own warm-up, measured runs
	if c.MovedToFL != want || c.NSuccess+c.NFailed != want {
		t.Errorf("moved %d, completed %d, want %d each", c.MovedToFL, c.NSuccess+c.NFailed, want)
	}
}
