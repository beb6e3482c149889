// Package des provides a deterministic discrete-event simulation kernel.
//
// All HPC-Whisk components (the Slurm emulator, the OpenWhisk emulation,
// the message bus, workload generators and load generators) are actors on
// a single virtual clock owned by a Sim. Events scheduled for the same
// instant execute in scheduling order, so a run is reproducible
// bit-for-bit given fixed inputs and seeds.
//
// The kernel is the hot path of every experiment (a 24-hour production
// run dispatches millions of events), so its queue has two tiers of
// pointer-free value entries, both ordered by (instant, sequence):
//
//   - The near tier is a hashed timing wheel (Varghese & Lauck, SOSP
//     1987): 4096 buckets of 2^20 ns (≈1.05 ms) covering the ≈4.3 s
//     from a base bucket on. Request-path hops, poll ticks and other
//     short delays enter it in O(1); an occupancy bitmap finds the next
//     non-empty bucket, and only the bucket being consumed is sorted.
//   - The far tier is a flat 4-ary min-heap for everything outside the
//     wheel's window: 60 s action timeouts, trace boundaries, job ends.
//
// Each step fires the smaller of the two tier heads under (instant,
// sequence). That is the one total order a single queue would give, so
// which tier holds an event never changes when it fires. The base
// bucket only moves forward; an event due before it (possible after a
// re-entrant Step, see RunUntil) goes to the heap.
//
// Callback slots are pooled in a free list and recycled as events
// fire; Event handles are small generation-checked values, so Stop and
// Pending on a handle whose slot has been recycled for a later
// scheduling are detected and refused rather than corrupting the queue.
// Stopped events leave their queue entry behind and are skipped when it
// surfaces.
//
// The zero value of Sim is ready to use; its clock starts at instant 0.
package des

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Time is an absolute instant on the virtual clock, expressed as the offset
// from the simulation epoch (instant 0). It aliases time.Duration so that
// ordinary duration arithmetic applies.
type Time = time.Duration

// Event is a handle to a scheduled callback, returned by Schedule and
// After so the caller can cancel it with Stop before it fires. It is a
// small value (copy freely); the zero Event is valid and refers to no
// scheduling. The handle stays safe forever: once the event fires or is
// stopped, its pooled slot may be recycled for a later scheduling, and
// the generation check makes Stop/Pending on the stale handle a no-op.
type Event struct {
	sim  *Sim
	when Time
	gen  uint32
	idx  int32
}

// node is one pooled callback slot. gen increments every time the slot
// is released (fired or stopped), so a queue entry or handle created for
// an earlier scheduling can never act on a later one. (uint32 suffices:
// a false match needs one slot to cycle exactly 2^32 times while a
// stale reference is held; whole runs schedule orders of magnitude
// fewer events.)
//
// A slot holds either a plain callback (fn) or a typed-argument pair
// (fnA, arg) from ScheduleCall; exactly one of fn/fnA is non-nil while
// the slot is live. The typed form lets hot-path callers reuse one
// long-lived func(any) (typically a cached method value) instead of
// allocating a capturing closure per event. inWheel records which tier
// holds the slot's entry, so Stop charges only heap entries to ndead.
type node struct {
	fn      func()
	fnA     func(any)
	arg     any
	gen     uint32
	inWheel bool
}

// entry is one queue element: 24 bytes (8+8+4+4), pointer-free, ordered
// by (when, seq) for the deterministic total order.
type entry struct {
	when Time
	seq  uint64
	gen  uint32
	idx  int32
}

// When reports the instant the event is (or was) scheduled to fire.
func (e Event) When() Time { return e.when }

// Scheduled reports whether the handle has ever referred to a
// scheduling (i.e. it is not the zero Event). Unlike Pending it stays
// true after the event fires.
func (e Event) Scheduled() bool { return e.sim != nil }

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	return e.sim != nil && e.sim.nodes[e.idx].gen == e.gen
}

// Stop cancels the event. It reports whether the event was still pending;
// stopping an already-fired or already-stopped event is a no-op, even if
// the event's pooled slot has since been recycled for another scheduling.
func (e Event) Stop() bool {
	if e.sim == nil {
		return false
	}
	s := e.sim
	n := &s.nodes[e.idx]
	if n.gen != e.gen {
		return false
	}
	// Release the slot immediately; the queue entry becomes stale and is
	// skipped when it surfaces (both tiers are index-free by design).
	n.fn, n.fnA, n.arg = nil, nil, nil
	n.gen++
	s.free = append(s.free, e.idx)
	s.npending--
	s.stats.Stopped++
	if !n.inWheel {
		s.ndead++
	}
	return true
}

// Stats is a snapshot of a Sim's work counters since it was created.
// Counting never touches the queue, so reading or ignoring the counters
// cannot change a run.
type Stats struct {
	Scheduled uint64 // events queued: WheelScheduled + HeapScheduled
	Fired     uint64 // callbacks run
	Stopped   uint64 // pending events canceled through Event.Stop

	WheelScheduled uint64 // schedulings due inside the timing wheel's window
	HeapScheduled  uint64 // schedulings that went to the far-tier heap

	Compactions uint64 // heap rebuilds that dropped stopped entries
	HeapMax     int    // most entries the heap held at once, stopped ones included
}

// Sim is a discrete-event simulation: a virtual clock plus a queue of
// pending events. Sim is not safe for concurrent use; the simulation
// executes in a single goroutine by design (determinism is the point).
// Independent Sims are fully isolated, so replicas of an experiment can
// run concurrently on one Sim each (as internal/sweep does).
type Sim struct {
	now   Time
	wheel *wheel // near tier; allocated by the first scheduling inside its window
	heap  []entry
	nodes []node
	free  []int32

	seq      uint64
	npending int

	// ndead counts the stopped entries the heap still carries. Stopped
	// heap events release their slot immediately but leave their 24-byte
	// entry behind until it surfaces — under a request-path workload
	// that arms and cancels a 60-second timeout per invocation, stale
	// entries can outnumber live ones and deepen every sift. Once they
	// do, the heap is compacted in place (maybeCompact). Stopped wheel
	// entries are not counted: they cost no sift work and leave the
	// wheel when their bucket is consumed.
	ndead int

	stats Stats
}

// New returns an empty simulation with its clock at instant 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual instant.
func (s *Sim) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.npending }

// Stats returns the work counters. It is O(1).
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Scheduled = st.WheelScheduled + st.HeapScheduled
	return st
}

// Schedule queues fn to run at instant at. Scheduling in the past panics:
// a component that does so holds a stale view of the clock, which is a bug.
func (s *Sim) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	idx, n := s.acquire(at)
	n.fn = fn
	return s.enqueue(at, idx, n)
}

// After queues fn to run d from now. A negative d panics.
func (s *Sim) After(d time.Duration, fn func()) Event {
	return s.Schedule(s.now+d, fn)
}

// ScheduleCall queues fn(arg) to run at instant at. It is Schedule for
// the hot path: fn is typically a long-lived func(any) (a method value
// cached once on the caller) and arg the per-event payload, so queueing
// an event allocates nothing — no closure is created and the (fn, arg)
// pair lives in the pooled slot. Events from ScheduleCall and Schedule
// share one total (instant, sequence) order.
func (s *Sim) ScheduleCall(at Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	idx, n := s.acquire(at)
	n.fnA = fn
	n.arg = arg
	return s.enqueue(at, idx, n)
}

// AfterCall queues fn(arg) to run d from now. A negative d panics.
func (s *Sim) AfterCall(d time.Duration, fn func(any), arg any) Event {
	return s.ScheduleCall(s.now+d, fn, arg)
}

// acquire validates the instant and takes a free callback slot.
func (s *Sim) acquire(at Time) (int32, *node) {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, s.now))
	}
	var idx int32
	if k := len(s.free); k > 0 {
		idx = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.nodes = append(s.nodes, node{})
		idx = int32(len(s.nodes) - 1)
	}
	return idx, &s.nodes[idx]
}

// enqueue files the filled slot's entry in the tier that covers its
// instant and hands out the handle.
func (s *Sim) enqueue(at Time, idx int32, n *node) Event {
	e := entry{when: at, seq: s.seq, gen: n.gen, idx: idx}
	s.seq++
	if w, b, ok := s.near(at); ok {
		w.add(e, b)
		n.inWheel = true
		s.stats.WheelScheduled++
	} else {
		s.push(e)
		n.inWheel = false
		s.stats.HeapScheduled++
	}
	s.npending++
	return Event{sim: s, when: at, gen: n.gen, idx: idx}
}

// near reports the wheel and bucket for an entry due at at, with ok
// false when at lies outside the wheel's window and belongs in the heap.
// It creates the wheel on first use, and moves an empty wheel's base up
// to the clock so the window follows the simulation through quiet spells.
func (s *Sim) near(at Time) (w *wheel, b int64, ok bool) {
	b = bucketOf(at)
	now := bucketOf(s.now)
	w = s.wheel
	if w == nil {
		if b-now >= wheelSlots {
			return nil, 0, false
		}
		w = newWheel(now)
		s.wheel = w
	} else if now > w.base && w.n == 0 && w.pos == len(w.cur) {
		w.base, w.cur, w.pos = now, w.cur[:0], 0 // empty: re-anchor on the clock
	}
	d := b - w.base
	return w, b, d >= 0 && d < wheelSlots
}

// fire releases e's slot and runs its callback. The caller must have
// checked that e is live (slot generation matches), taken it off its
// tier and set the clock.
func (s *Sim) fire(e entry) {
	n := &s.nodes[e.idx]
	fn, fnA, arg := n.fn, n.fnA, n.arg
	n.fn, n.fnA, n.arg = nil, nil, nil
	n.gen++
	s.free = append(s.free, e.idx)
	s.npending--
	s.stats.Fired++
	if fnA != nil {
		fnA(arg)
		return
	}
	fn()
}

// next returns the earliest live pending entry and whether the wheel
// (rather than the heap) holds it; ok is false when nothing is pending.
// Stopped entries met at either head are dropped; nothing fires.
func (s *Sim) next() (e entry, inWheel, ok bool) {
	w, wok := s.wheelHead()
	h, hok := s.heapHead()
	if wok && (!hok || less(w, h)) {
		return w, true, true
	}
	return h, false, hok
}

// stepThrough fires the earliest pending event if it is due at or
// before limit, advancing the clock to its instant. It reports whether
// an event fired. The entry leaves its tier before the callback runs,
// so a re-entrant Step/Run inside the callback sees the rest of the
// queue in the same (when, seq) order.
func (s *Sim) stepThrough(limit Time) bool {
	e, inWheel, ok := s.next()
	if !ok || e.when > limit {
		return false
	}
	if inWheel {
		s.wheel.pos++
	} else {
		s.pop()
	}
	s.now = e.when
	s.fire(e)
	return true
}

// Step fires the earliest pending event, advancing the clock to its
// instant. It reports whether an event was fired.
func (s *Sim) Step() bool { return s.stepThrough(math.MaxInt64) }

// Run fires events until the queue drains.
func (s *Sim) Run() {
	for s.stepThrough(math.MaxInt64) {
	}
}

// RunUntil fires every event scheduled at or before end, then advances the
// clock to end (even if the queue drained earlier or is still non-empty).
//
// The clock is set to end even when it already reads later: a callback
// that calls Step can fire an event past end, and the enclosing RunUntil
// then leaves the clock at end, behind an instant that has already
// fired. Events scheduled from there on still fire in (when, seq) order.
func (s *Sim) RunUntil(end Time) {
	if end < s.now {
		panic(fmt.Sprintf("des: run until %v before now %v", end, s.now))
	}
	for s.stepThrough(end) {
	}
	s.now = end
}

// RunFor advances the simulation by d, firing every event in that window.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// RunBefore fires every event scheduled strictly before end, then
// advances the clock to end. It is the half-open window primitive of
// the conservative parallel coordinator (internal/pdes): a plane can be
// advanced through [now, end) while events at exactly end stay pending,
// so a later RunUntil(end) — or events injected at exactly end — still
// fire in (when, seq) order. Equivalent to RunUntil(end) followed by
// re-running the events at end, except those events never fire here.
func (s *Sim) RunBefore(end Time) {
	if end < s.now {
		panic(fmt.Sprintf("des: run before %v behind now %v", end, s.now))
	}
	for s.stepThrough(end - 1) {
	}
	s.now = end
}

// NextAt reports the instant of the earliest live pending event — the
// shard-horizon query of the parallel coordinator. ok is false when no
// live event is pending. The clock does not move and nothing fires.
func (s *Sim) NextAt() (at Time, ok bool) {
	e, _, ok := s.next()
	return e.when, ok
}

// less orders entries by (when, seq): the deterministic total order.
func less(a, b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Far tier: the 4-ary heap.

// heapHead returns the heap's earliest live entry, popping stopped ones
// off the top and compacting the heap when it is mostly dead.
func (s *Sim) heapHead() (entry, bool) {
	s.maybeCompact()
	for len(s.heap) > 0 {
		top := s.heap[0]
		if s.nodes[top.idx].gen == top.gen {
			return top, true
		}
		s.pop()
		if s.ndead > 0 {
			s.ndead--
		}
	}
	return entry{}, false
}

// maybeCompact rebuilds the heap without its stale entries once they
// outnumber the live ones, so sift depth tracks the live event count
// rather than the cancellation history. Compaction is invisible to the
// simulation: the firing order is the (when, seq) total order, which any
// valid heap over the same live entries yields.
func (s *Sim) maybeCompact() {
	if s.ndead <= 64 || 2*s.ndead <= len(s.heap) {
		return
	}
	live := s.heap[:0]
	for _, e := range s.heap {
		if s.nodes[e.idx].gen == e.gen {
			live = append(live, e)
		}
	}
	s.heap = live
	for i := (len(live) - 2) / 4; i >= 0 && len(live) > 1; i-- {
		s.siftDown(i)
	}
	s.ndead = 0
	s.stats.Compactions++
}

// push inserts e into the 4-ary heap, sifting up with hole moves (each
// level is one entry copy, not a swap).
func (s *Sim) push(e entry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
	if len(h) > s.stats.HeapMax {
		s.stats.HeapMax = len(h)
	}
}

// pop removes and returns the minimum entry, sifting the displaced last
// entry down. With 4 children per level the heap is half the depth of a
// binary heap, trading slightly wider min-of-children scans (which stay
// in one or two cache lines: entries are 24 bytes) for fewer levels.
func (s *Sim) pop() entry {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	if last > 1 {
		s.siftDown(0)
	}
	return top
}

// siftDown restores the heap property below i with hole moves (each
// level is one entry copy, not a swap). Full four-child fan-outs find
// their minimum with a pairwise tournament — two independent compare
// chains instead of one serial scan. (when, seq) keys are unique, so
// tie-break order between the variants can never matter.
func (s *Sim) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			if less(h[c+1], h[m]) {
				m = c + 1
			}
			m2 := c + 2
			if less(h[c+3], h[m2]) {
				m2 = c + 3
			}
			if less(h[m2], h[m]) {
				m = m2
			}
		} else {
			for j := c + 1; j < n; j++ {
				if less(h[j], h[m]) {
					m = j
				}
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// Near tier: the timing wheel.

// Wheel geometry: 4096 buckets of 2^20 ns, a window of 2^32 ns ≈ 4.3 s.
const (
	bucketShift = 20
	wheelSlots  = 4096
	slotMask    = wheelSlots - 1
)

// bucketOf returns the absolute bucket number of instant t (t ≥ 0).
func bucketOf(t Time) int64 { return int64(t) >> bucketShift }

// wheel holds the entries due in buckets [base, base+wheelSlots). The
// bucket being consumed (base) lives sorted in cur; each later bucket is
// an unsorted list in its slot (bucket mod wheelSlots), threaded through
// a shared link arena with a free list, so once the wheel has seen its
// peak occupancy it stops allocating. The slot of base itself is always
// empty: turning to a bucket moves its list into cur.
type wheel struct {
	base int64   // absolute bucket in cur; never decreases
	cur  []entry // bucket base, sorted by (when, seq); cur[pos:] still queued
	pos  int
	n    int // entries in the slot lists, stopped ones included

	occ   [wheelSlots / 64]uint64 // bit i%64 of occ[i/64]: slot i's list is non-empty
	sum   uint64                  // bit j: occ[j] != 0
	head  [wheelSlots]int32       // first link of each slot's list, -1 when empty
	links []link
	free  int32 // first free link, -1 when none

	// First backing arrays of links and cur, allocated with the wheel: a
	// wheel that never holds more than these costs a single allocation.
	linkBuf [256]link
	curBuf  [32]entry
}

// link is one arena cell: an entry and the next cell of its slot list
// (or of the free list), -1 ending either.
type link struct {
	e    entry
	next int32
}

func newWheel(base int64) *wheel {
	w := &wheel{base: base, free: -1}
	w.links, w.cur = w.linkBuf[:0], w.curBuf[:0]
	for i := range w.head {
		w.head[i] = -1
	}
	return w
}

// add files e, due in bucket b of the window. An entry for the bucket
// being consumed is inserted in order into cur; every new entry carries
// the largest sequence number so far, so it goes after all entries due
// at or before its instant.
func (w *wheel) add(e entry, b int64) {
	if b == w.base {
		if w.pos == len(w.cur) {
			w.cur, w.pos = w.cur[:0], 0
		}
		c := append(w.cur, e)
		i := len(c) - 1
		for i > w.pos && e.when < c[i-1].when {
			c[i] = c[i-1]
			i--
		}
		c[i] = e
		w.cur = c
		return
	}
	i := w.free
	if i >= 0 {
		w.free = w.links[i].next
	} else {
		w.links = append(w.links, link{})
		i = int32(len(w.links) - 1)
	}
	slot := int(b) & slotMask
	w.links[i] = link{e: e, next: w.head[slot]}
	w.head[slot] = i
	w.occ[slot>>6] |= 1 << (slot & 63)
	w.sum |= 1 << (slot >> 6)
	w.n++
}

// turn advances base to the next non-empty bucket and moves its list,
// sorted, into cur. It requires cur drained and w.n > 0.
func (w *wheel) turn() {
	from := int(w.base) & slotMask
	slot := w.nextSlot(from)
	w.base += int64((slot - from) & slotMask)
	c := w.cur[:0]
	for i := w.head[slot]; i >= 0; {
		l := &w.links[i]
		c = append(c, l.e)
		next := l.next
		l.next = w.free
		w.free = i
		i = next
	}
	w.head[slot] = -1
	if w.occ[slot>>6] &^= 1 << (slot & 63); w.occ[slot>>6] == 0 {
		w.sum &^= 1 << (slot >> 6)
	}
	w.n -= len(c)
	slices.Reverse(c) // lists are LIFO: back to scheduling (seq) order
	sortBucket(c)
	w.cur, w.pos = c, 0
}

// nextSlot returns the first occupied slot at or cyclically after from.
func (w *wheel) nextSlot(from int) int {
	word := from >> 6
	if m := w.occ[word] &^ (1<<(from&63) - 1); m != 0 {
		return word<<6 | bits.TrailingZeros64(m)
	}
	m := w.sum &^ (uint64(2)<<word - 1) // words after from's
	if m == 0 {
		m = w.sum // wrap around
	}
	word = bits.TrailingZeros64(m)
	return word<<6 | bits.TrailingZeros64(w.occ[word])
}

// sortBucket sorts one bucket by (when, seq). Buckets are small on the
// request path (a few entries per millisecond), where insertion sort is
// fastest; a bucket that is large but in order — thousands of ticks
// armed for one instant — costs one pass.
func sortBucket(c []entry) {
	if len(c) > 32 {
		slices.SortFunc(c, func(a, b entry) int {
			if less(a, b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(c); i++ {
		e := c[i]
		j := i
		for j > 0 && less(e, c[j-1]) {
			c[j] = c[j-1]
			j--
		}
		c[j] = e
	}
}

// wheelHead returns the wheel's earliest live entry, skipping stopped
// ones and turning to the next non-empty bucket when cur is drained.
func (s *Sim) wheelHead() (entry, bool) {
	w := s.wheel
	if w == nil {
		return entry{}, false
	}
	for {
		for ; w.pos < len(w.cur); w.pos++ {
			if e := w.cur[w.pos]; s.nodes[e.idx].gen == e.gen {
				return e, true
			}
		}
		if w.n == 0 {
			return entry{}, false
		}
		w.turn()
	}
}

// Ticker fires a callback at a fixed interval until stopped.
type Ticker struct {
	sim      *Sim
	interval time.Duration
	fn       func()
	tick     func() // cached self-callback: one closure per ticker, not per tick
	next     Event
	stopped  bool
}

// Every schedules fn to run every interval, first at now+interval.
// It panics if interval is not positive.
func (s *Sim) Every(interval time.Duration, fn func()) *Ticker {
	return s.EveryFrom(s.now+interval, interval, fn)
}

// EveryFrom schedules fn to run every interval, first at instant first.
// It panics if interval is not positive.
func (s *Sim) EveryFrom(first Time, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("des: non-positive ticker interval")
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	t.tick = t.doTick
	t.next = s.Schedule(first, t.tick)
	return t
}

func (t *Ticker) doTick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.next = t.sim.After(t.interval, t.tick)
	}
}

// Stop cancels the ticker. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.next.Stop()
}
