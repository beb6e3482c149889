package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refSim is the pre-optimization kernel (container/heap binary heap,
// one *refEvent allocation per scheduling, eager removal on Stop),
// kept as the ordering oracle (RunBefore and NextAt added on top): the pooled two-tier kernel
// (timing wheel + 4-ary heap) must fire the same events at the same
// instants in the same order.

type refEvent struct {
	sim   *refSim
	when  Time
	seq   uint64
	fn    func()
	index int
}

func (e *refEvent) Stop() bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&e.sim.events, e.index)
	e.index = -1
	e.fn = nil
	return true
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refSim struct {
	now    Time
	events refHeap
	seq    uint64
}

func (s *refSim) RunBefore(end Time) {
	for len(s.events) > 0 && s.events[0].when < end {
		s.Step()
	}
	s.now = end
}

func (s *refSim) NextAt() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].when, true
}

func (s *refSim) Schedule(at Time, fn func()) *refEvent {
	e := &refEvent{sim: s, when: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

func (s *refSim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*refEvent)
	s.now = e.when
	fn := e.fn
	e.fn = nil
	fn()
	return true
}

func (s *refSim) RunUntil(end Time) {
	for len(s.events) > 0 && s.events[0].when <= end {
		s.Step()
	}
	s.now = end
}

// kernel abstracts the two implementations so one scripted op sequence
// can drive both.
type kernel struct {
	now       func() Time
	schedule  func(at Time, fn func()) (stop func() bool)
	step      func() bool
	runUntil  func(end Time)
	runBefore func(end Time)
	nextAt    func() (Time, bool)
	drain     func()
}

func pooledKernel() kernel { return simKernel(New()) }

func simKernel(s *Sim) kernel {
	return kernel{
		now: s.Now,
		schedule: func(at Time, fn func()) func() bool {
			e := s.Schedule(at, fn)
			return e.Stop
		},
		step:      s.Step,
		runUntil:  s.RunUntil,
		runBefore: s.RunBefore,
		nextAt:    s.NextAt,
		drain:     s.Run,
	}
}

func referenceKernel() kernel {
	s := &refSim{}
	return kernel{
		now: func() Time { return s.now },
		schedule: func(at Time, fn func()) func() bool {
			e := s.Schedule(at, fn)
			return e.Stop
		},
		step: s.Step,
		runUntil: func(end Time) {
			s.RunUntil(end)
		},
		runBefore: s.RunBefore,
		nextAt:    s.NextAt,
		drain: func() {
			for s.Step() {
			}
		},
	}
}

// runScript drives k through ops pseudo-random schedule / stop / tick
// operations (from its own identically-seeded rng) and renders every
// observable — each firing as "id@instant", every Stop result, every
// Step result — into one log. Callbacks with id ≡ 0 (mod 7) schedule a
// child event from inside the dispatch, exercising reentrant
// scheduling at (and after) the current instant.
func runScript(k kernel, ops int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var log []byte
	var stops []func() bool
	nextID := 0

	var scheduleOne func(at Time)
	scheduleOne = func(at Time) {
		id := nextID
		nextID++
		spawn := id%7 == 0
		childOff := Time(1+id%911) * Time(time.Millisecond)
		stop := k.schedule(at, func() {
			log = append(log, fmt.Sprintf("%d@%d\n", id, k.now())...)
			if spawn {
				scheduleOne(k.now() + childOff)
			}
			// Re-entrant dispatch from inside a callback: a sprinkle of
			// events single-step the kernel or drain their own instant.
			if id%97 == 13 {
				log = append(log, fmt.Sprintf("rstep=%v\n", k.step())...)
			}
			if id%101 == 17 {
				k.runUntil(k.now())
			}
		})
		stops = append(stops, stop)
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 6: // schedule at a random future offset
			off := Time(rng.Intn(10_000)) * Time(time.Millisecond)
			scheduleOne(k.now() + off)
		case r < 8: // stop a random handle (often already fired: stale)
			if len(stops) == 0 {
				continue
			}
			j := rng.Intn(len(stops))
			log = append(log, fmt.Sprintf("stop%d=%v\n", j, stops[j]())...)
		case r == 8: // tick: advance the clock by a window
			d := Time(rng.Intn(5_000)) * Time(time.Millisecond)
			k.runUntil(k.now() + d)
			log = append(log, fmt.Sprintf("tick->%d\n", k.now())...)
		default: // fire a single event
			log = append(log, fmt.Sprintf("step=%v\n", k.step())...)
		}
	}
	k.drain()
	return string(log)
}

// TestPropertyPooledHeapMatchesReference requires the pooled two-tier
// kernel and the container/heap oracle to produce byte-identical logs
// over 100k random operations.
func TestPropertyPooledHeapMatchesReference(t *testing.T) {
	const ops = 100_000
	for _, seed := range []int64{1, 2, 3} {
		got := runScript(pooledKernel(), ops, seed)
		want := runScript(referenceKernel(), ops, seed)
		if got != want {
			t.Fatalf("seed %d: %s", seed, firstDiff(got, want))
		}
	}
}

func clip(s string, lo int) string {
	hi := lo + 120
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestStopOnRecycledSlot covers the pooling edge case: after an event
// fires, its slot is recycled for the next scheduling, and the stale
// handle's Stop must refuse (generation mismatch) rather than cancel
// the unrelated new event.
func TestStopOnRecycledSlot(t *testing.T) {
	s := New()
	a := s.Schedule(time.Second, func() {})
	s.Run() // a fires; its slot returns to the free list

	fired := false
	b := s.Schedule(2*time.Second, func() { fired = true })
	if !b.Pending() {
		t.Fatal("b should be pending")
	}
	if a.Pending() {
		t.Error("stale handle reports Pending after its slot was recycled")
	}
	if a.Stop() {
		t.Error("Stop on a fired event's recycled slot should report false")
	}
	if !b.Pending() {
		t.Fatal("stale Stop cancelled an unrelated event sharing the slot")
	}
	s.Run()
	if !fired {
		t.Error("b never fired")
	}
	if a.When() != time.Second || b.When() != 2*time.Second {
		t.Errorf("When() lost after recycling: a=%v b=%v", a.When(), b.When())
	}
}

// TestStopStoppedThenRecycledSlot is the same hazard via the Stop path:
// a stopped event's slot is recycled immediately, and the old handle
// must stay dead.
func TestStopStoppedThenRecycledSlot(t *testing.T) {
	s := New()
	a := s.Schedule(time.Second, func() { t.Error("stopped event fired") })
	if !a.Stop() {
		t.Fatal("first Stop should report true")
	}
	fired := false
	b := s.Schedule(time.Second, func() { fired = true }) // reuses a's slot
	if a.Stop() {
		t.Error("second Stop on a stale handle should report false")
	}
	if a.Pending() {
		t.Error("stale handle reports Pending")
	}
	s.Run()
	if !fired {
		t.Error("b never fired (stale handle interfered)")
	}
	_ = b
}

// TestStopSameInstantSibling: an event stopping a same-instant sibling
// within that instant's dispatch must prevent the sibling from firing.
func TestStopSameInstantSibling(t *testing.T) {
	s := New()
	var b Event
	bFired := false
	s.Schedule(time.Second, func() {
		if !b.Stop() {
			t.Error("stopping a same-instant pending sibling should report true")
		}
	})
	b = s.Schedule(time.Second, func() { bFired = true })
	s.RunFor(2 * time.Second)
	if bFired {
		t.Error("stopped same-instant sibling fired anyway")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestTickerStopInsideCallbackWithReuse: a ticker stopped from inside
// its own callback must not re-arm, even with slot recycling churn from
// other events in flight.
func TestTickerStopInsideCallbackWithReuse(t *testing.T) {
	s := New()
	churn := 0
	s.Every(300*time.Millisecond, func() { churn++ })
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(10 * time.Second)
	if n != 3 {
		t.Errorf("ticker fired %d times after Stop inside callback, want 3", n)
	}
	if churn == 0 {
		t.Error("churn ticker never fired")
	}
}

// TestReentrantRunPreservesOrder: a callback that re-enters the event
// loop mid-instant must see its same-instant siblings fire before any
// later instant, at the right clock reading.
func TestReentrantRunPreservesOrder(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(time.Second, func() {
		order = append(order, "A")
		s.Run() // re-enter while sibling B is still pending at this instant
		order = append(order, "A-done")
	})
	s.Schedule(time.Second, func() {
		order = append(order, fmt.Sprintf("B@%v", s.Now()))
	})
	s.Schedule(2*time.Second, func() {
		order = append(order, fmt.Sprintf("C@%v", s.Now()))
	})
	s.Run()
	want := "A,B@1s,C@2s,A-done"
	got := strings.Join(order, ",")
	if got != want {
		t.Fatalf("re-entrant order = %s, want %s", got, want)
	}
}

// TestReentrantStepFiresSameInstantSibling: Step from inside a callback
// fires the next same-instant event, exactly as the one-at-a-time
// kernel did.
func TestReentrantStepFiresSameInstantSibling(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(time.Second, func() {
		order = append(order, 1)
		if !s.Step() {
			t.Error("re-entrant Step found nothing despite a pending sibling")
		}
		order = append(order, 3)
	})
	s.Schedule(time.Second, func() { order = append(order, 2) })
	s.RunFor(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

// TestPendingCountWithLazyCancellation: Sim.Pending must count live
// events only, regardless of stale entries still inside the heap.
func TestPendingCountWithLazyCancellation(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.Schedule(Time(i+1)*Time(time.Second), func() {}))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Stop()
	}
	if got := s.Pending(); got != 50 {
		t.Fatalf("Pending = %d after stopping half, want 50", got)
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}
