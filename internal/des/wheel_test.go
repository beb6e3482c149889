package des

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Wheel geometry as durations, for placing events on its edges.
const (
	bucketW = Time(1) << bucketShift
	spanW   = wheelSlots * bucketW
)

// edgeDelays are offsets from the clock around the edges of the
// two-tier queue: the bucket being consumed, the bucket width ±1 ns,
// the wheel span ±1 bucket (±1 ns), several rotations, and the 60 s
// action timeout.
var edgeDelays = [...]Time{
	0, 1, 17, bucketW / 2, bucketW - 1, bucketW, bucketW + 1,
	2*bucketW - 1, 2 * bucketW, 2*bucketW + 1, 3*bucketW + 5,
	spanW - bucketW - 1, spanW - bucketW, spanW - bucketW + 1,
	spanW - 1, spanW, spanW + 1,
	spanW + bucketW - 1, spanW + bucketW, spanW + bucketW + 1,
	2*spanW - 1, 2*spanW + 1, 3*spanW + bucketW/2, 5*spanW - bucketW,
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 60 * time.Second, 60*time.Second + 1,
}

// edgeBuckets are bucket offsets from the clock's bucket; a scheduling
// aimed at one lands on that bucket's first instant ±1 ns.
var edgeBuckets = [...]int64{0, 1, 2, wheelSlots - 1, wheelSlots, wheelSlots + 1, 2 * wheelSlots, 3*wheelSlots + 7}

// edgeJumps are RunUntil/RunBefore advances, up to several spans.
var edgeJumps = [...]Time{0, 1, bucketW - 1, bucketW, spanW - 1, spanW, spanW + bucketW, 3*spanW + 1, 70 * time.Second}

// runOps decodes ops as (op, arg) byte pairs and drives k through
// them, rendering every observable — each firing as "id@instant", every
// Stop, Step and NextAt result, the clock after every RunUntil and
// RunBefore — into one log. Every fifth callback schedules a child at
// an edge delay; callbacks scheduled by op 7 call Step from inside the
// dispatch, which can fire an event past an enclosing RunUntil's end
// and so make that RunUntil step the clock back. stepBacks counts how
// often that happened.
func runOps(k kernel, ops []byte) (log string, stepBacks int) {
	var out []byte
	var stops []func() bool
	var latest Time // latest instant fired so far
	nextID := 0

	var schedule func(at Time, reenter bool)
	schedule = func(at Time, reenter bool) {
		id := nextID
		nextID++
		stop := k.schedule(at, func() {
			latest = max(latest, k.now())
			out = fmt.Appendf(out, "%d@%d\n", id, k.now())
			if id%5 == 0 {
				schedule(k.now()+edgeDelays[(id/5)%len(edgeDelays)], false)
			}
			if reenter {
				out = fmt.Appendf(out, "rstep=%v@%d\n", k.step(), k.now())
			}
		})
		stops = append(stops, stop)
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%16, int(ops[i+1])
		now := k.now()
		switch {
		case op < 5:
			schedule(now+edgeDelays[arg%len(edgeDelays)], false)
		case op < 7:
			b := bucketOf(now) + edgeBuckets[arg%len(edgeBuckets)]
			at := Time(b<<bucketShift) + Time(arg/len(edgeBuckets)%3) - 1
			schedule(max(at, now), false)
		case op == 7:
			schedule(now+edgeDelays[arg%len(edgeDelays)], true)
		case op < 10:
			if len(stops) == 0 {
				continue
			}
			j := len(stops) - 1 - arg%len(stops) // recent handles are likelier pending
			out = fmt.Appendf(out, "stop%d=%v\n", j, stops[j]())
		case op == 10:
			out = fmt.Appendf(out, "step=%v\n", k.step())
		case op < 13:
			end := now + edgeJumps[arg%len(edgeJumps)]
			k.runUntil(end)
			if latest > end {
				stepBacks++
			}
			out = fmt.Appendf(out, "until->%d\n", k.now())
		case op == 13:
			k.runBefore(now + edgeJumps[arg%len(edgeJumps)])
			out = fmt.Appendf(out, "before->%d\n", k.now())
		case op == 14:
			at, ok := k.nextAt()
			out = fmt.Appendf(out, "next=%d,%v\n", at, ok)
		default: // requests completing: arm 60 s timeouts, then stop them
			n := arg%32 + 1
			for j := 0; j < n; j++ {
				schedule(now+60*time.Second+Time(j), false)
			}
			for _, stop := range stops[len(stops)-n:] {
				stop()
			}
			out = fmt.Appendf(out, "burst%d\n", n)
		}
	}
	k.drain()
	return string(out), stepBacks
}

// edgeOpWeights weights runOps' op codes for edgeOps: clock advances
// are rare enough, and stopped timeouts frequent enough, that the heap
// builds up the stale entries its compaction exists for.
var edgeOpWeights = [16]int{7, 7, 7, 7, 7, 8, 7, 5, 8, 7, 10, 2, 1, 1, 3, 13}

// edgeOps draws n weighted random (op, arg) pairs for runOps.
func edgeOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range edgeOpWeights {
		total += w
	}
	ops := make([]byte, 0, 2*n)
	for len(ops) < 2*n {
		r, op := rng.Intn(total), 0
		for r >= edgeOpWeights[op] {
			r -= edgeOpWeights[op]
			op++
		}
		ops = append(ops, byte(op), byte(rng.Intn(256)))
	}
	return ops
}

// firstDiff locates the first byte where two logs diverge and renders
// both around it.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("logs diverge at byte %d:\npooled    ...%q\nreference ...%q", i, clip(got, lo), clip(want, lo))
}

// TestPropertyWheelEdgesMatchReference is the wheel-edge op mix: delays
// clustered on bucket and span boundaries, inserts into the bucket
// being consumed, clock jumps over several wheel rotations, re-entrant
// Steps that make RunUntil step the clock back, RunBefore, NextAt, and
// Stop on wheel and heap entries alike — all against the container/heap
// oracle, which must log the same bytes.
func TestPropertyWheelEdgesMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s := New()
		ops := edgeOps(seed, 100_000)
		got, stepBacks := runOps(simKernel(s), ops)
		want, _ := runOps(referenceKernel(), ops)
		if got != want {
			t.Fatalf("seed %d: %s", seed, firstDiff(got, want))
		}
		// The mix must reach the cases it exists for.
		st := s.Stats()
		t.Logf("seed %d: %d step-backs, %+v", seed, stepBacks, st)
		if stepBacks == 0 || st.WheelScheduled == 0 || st.HeapScheduled == 0 || st.Compactions == 0 {
			t.Errorf("seed %d: mix missed a case: %d step-backs, stats %+v", seed, stepBacks, st)
		}
		if st.Scheduled != st.Fired+st.Stopped || s.Pending() != 0 {
			t.Errorf("seed %d: scheduled %d ≠ fired %d + stopped %d after drain", seed, st.Scheduled, st.Fired, st.Stopped)
		}
	}
}

// FuzzKernelMatchesReference runs arbitrary op bytes through the
// two-tier kernel and the container/heap oracle. The seed corpus under
// testdata/fuzz runs as part of the plain test suite.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<13 {
			ops = ops[:1<<13]
		}
		got, _ := runOps(pooledKernel(), ops)
		want, _ := runOps(referenceKernel(), ops)
		if got != want {
			t.Fatal(firstDiff(got, want))
		}
	})
}

// TestFuzzCorpusPresent keeps the committed seed corpus from silently
// vanishing: without it the fuzz target runs no input as a plain test.
func TestFuzzCorpusPresent(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzKernelMatchesReference", "*"))
	if len(files) == 0 {
		t.Fatal("no seed corpus for FuzzKernelMatchesReference")
	}
	for _, f := range files {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("corpus file %s unreadable or empty", f)
		}
	}
}

func TestStatsCountEveryTier(t *testing.T) {
	var s Sim
	if s.wheel != nil {
		t.Fatal("zero Sim should not own a wheel")
	}
	far := s.Schedule(10*time.Second, func() {}) // outside the window
	if s.wheel != nil {
		t.Error("a far-only Sim allocated the wheel")
	}
	near := s.Schedule(time.Millisecond, func() {})
	s.Schedule(2*time.Millisecond, func() {})
	if s.wheel == nil {
		t.Fatal("a near scheduling should allocate the wheel")
	}
	near.Stop()
	if s.ndead != 0 {
		t.Errorf("stopping a wheel entry fed the heap's ndead: %d", s.ndead)
	}
	far.Stop()
	if s.ndead != 1 {
		t.Errorf("ndead = %d after stopping a heap entry, want 1", s.ndead)
	}
	s.Run()
	want := Stats{Scheduled: 3, Fired: 1, Stopped: 2, WheelScheduled: 2, HeapScheduled: 1, HeapMax: 1}
	if got := s.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if s.ndead != 0 {
		t.Errorf("ndead = %d after the stale heap entry surfaced, want 0", s.ndead)
	}
}

func TestStatsCountCompactions(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 200; i++ {
		evs = append(evs, s.Schedule(time.Minute+Time(i), func() {}))
	}
	for _, e := range evs[:150] {
		e.Stop()
	}
	s.Run()
	st := s.Stats()
	if st.Compactions != 1 || st.HeapMax != 200 || st.Fired != 50 || st.Stopped != 150 {
		t.Errorf("Stats = %+v, want 1 compaction, heap high-water 200, 50 fired, 150 stopped", st)
	}
}

// TestWheelWindowFollowsQuietClock: after a long stretch where only
// far events fire, an empty wheel re-anchors on the clock, so near
// schedulings go back to the wheel instead of piling into the heap.
func TestWheelWindowFollowsQuietClock(t *testing.T) {
	s := New()
	s.Schedule(time.Millisecond, func() {})
	s.Run()
	s.RunUntil(time.Hour)
	before := s.Stats()
	s.After(5*time.Millisecond, func() {})
	if s.Stats().WheelScheduled != before.WheelScheduled+1 {
		t.Error("a near scheduling after a quiet hour missed the wheel")
	}
	s.Run()
}

// BenchmarkDESHold is the classic hold model over the two-tier queue:
// each op fires the earliest event, and the population stays constant.
// Half the pending events are near hops (0.02–30 ms, one in 16 a 100 ms
// poll) that re-arm on firing; the other half are 60 s timeouts. Every
// fourth near firing replaces one ring timeout, stopping the old one
// first on even ring slots — so half the timeouts are stopped, as the
// request path does once a request completes, and the heap carries the
// stale entries into its compactions.
func BenchmarkDESHold(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
	}{{"pending=1k", 1 << 10}, {"pending=64k", 1 << 16}} {
		b.Run(c.name, func(b *testing.B) { benchHold(b, c.pending) })
	}
}

func benchHold(b *testing.B, pending int) {
	b.ReportAllocs()
	var delays [1024]Time
	x := uint64(88172645463325252)
	for i := range delays {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		delays[i] = 20*time.Microsecond + Time(x%uint64(30*time.Millisecond))
		if i%16 == 0 {
			delays[i] = 100 * time.Millisecond
		}
	}
	s := New()
	ring := make([]Event, pending/2)
	slot := make([]int, len(ring)) // callback args: pointers box without allocating
	var fired, cursor int
	var nearFn func()
	var farFn func(any)
	farFn = func(v any) { // a timeout that was not stopped fires and re-arms
		i := *v.(*int)
		ring[i] = s.AfterCall(60*time.Second, farFn, &slot[i])
	}
	nearFn = func() {
		fired++
		s.After(delays[fired%len(delays)], nearFn)
		if fired%4 != 0 {
			return
		}
		cursor = (cursor + 2) % len(ring) // even slots only
		ring[cursor].Stop()
		ring[cursor] = s.AfterCall(60*time.Second, farFn, &slot[cursor])
	}
	for i := range ring {
		slot[i] = i
		ring[i] = s.AfterCall(60*time.Second+Time(i)*time.Millisecond, farFn, &slot[i])
		s.After(delays[i%len(delays)], nearFn)
	}
	for i := 0; i < 8*pending; i++ { // reach the steady state: peak bucket and heap sizes
		s.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Pending()), "pending")
}
