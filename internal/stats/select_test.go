package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refQuantile is the sort-based quantile Sample.Quantile replaced: the
// slow oracle the selection path must match.
func refQuantile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// sameFloat is bit-for-bit equality with the sign of a zero exempt
// (sort.Float64s leaves the order of -0 and +0 unspecified) and any NaN
// equal to any NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// sampleOracle keeps every observation in insertion order and answers
// each query by sorting a copy.
type sampleOracle struct {
	xs     []float64
	sorted []float64 // nil when stale
}

func (o *sampleOracle) add(x float64) { o.xs, o.sorted = append(o.xs, x), nil }

func (o *sampleOracle) view() []float64 {
	if o.sorted == nil {
		o.sorted = slices.Clone(o.xs)
		sort.Float64s(o.sorted)
	}
	return o.sorted
}

// palette is the heavy-duplicate value set: infinities, huge and tiny
// magnitudes, both zeros and repeated small integers.
var palette = [...]float64{
	math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 5e-324, 0.5,
	1, 1, 1, 3, 3, 1e300, math.Inf(1),
}

// burst returns n values of the given shape; the byte seed picks the
// pseudo-random ones.
func burst(n int, shape, seed byte) []float64 {
	r := rand.New(rand.NewSource(int64(seed)))
	out := make([]float64, n)
	for i := range out {
		switch shape % 6 {
		case 0: // distinct, random order
			out[i] = r.NormFloat64()
		case 1: // heavy duplicates, random order
			out[i] = palette[r.Intn(len(palette))]
		case 2: // ascending with runs of equal values
			out[i] = float64(i / (1 + int(seed)%4))
		case 3: // descending
			out[i] = float64(n - i)
		case 4: // organ pipe
			out[i] = float64(min(i, n-1-i))
		case 5: // all equal
			out[i] = palette[int(seed)%len(palette)]
		}
	}
	return out
}

// checkFences asserts the structural invariant behind every fence:
// ascending positions, each holding its order statistic. Fence values
// ascend, so comparing each value with its two nearest fences suffices.
func checkFences(s *Sample) error {
	f := s.fences[:s.nf]
	if !slices.IsSorted(f) {
		return fmt.Errorf("fences %v not ascending", f)
	}
	j := 0 // f[j] is the first fence at or after i
	for i, x := range s.xs {
		for j < len(f) && f[j] < i {
			j++
		}
		if (j < len(f) && x > s.xs[f[j]]) || (j > 0 && x < s.xs[f[j-1]]) {
			return fmt.Errorf("xs[%d] = %v violates a fence of %v", i, x, f)
		}
	}
	return nil
}

// runSampleOps decodes ops into a sequence of Sample operations — Add
// bursts of every shape, a rare NaN, quantiles at random, repeated,
// boundary and fence-aligned p, Median, Min, Max, CDFAt and Values —
// and checks every answer against the oracle. It returns the first
// mismatch.
func runSampleOps(ops []byte) error {
	var s Sample
	var o sampleOracle
	var lastP float64
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for step := 0; len(ops) > 0; step++ {
		op := next()
		if op%8 == 0 {
			n, shape, seed := 1+int(next())*8, next(), next()
			for _, x := range burst(n, shape, seed) {
				s.Add(x)
				o.add(x)
			}
			continue
		}
		if op%8 == 7 && op >= 0xf0 {
			s.Add(math.NaN())
			o.add(math.NaN())
			continue
		}
		if s.Len() != len(o.xs) {
			return fmt.Errorf("step %d: Len %d, want %d", step, s.Len(), len(o.xs))
		}
		if len(o.xs) == 0 {
			continue
		}
		ref := o.view()
		var got, want float64
		var what string
		switch op % 8 {
		case 1, 7:
			lastP = float64(uint16(next())<<8|uint16(next())) / math.MaxUint16
			got, want, what = s.Quantile(lastP), refQuantile(ref, lastP), fmt.Sprintf("Quantile(%v)", lastP)
		case 2:
			got, want, what = s.Quantile(lastP), refQuantile(ref, lastP), fmt.Sprintf("repeated Quantile(%v)", lastP)
		case 3:
			p := [...]float64{0, 1, -0.5, 1.5, 1e-300, 1 - 1e-16}[next()%6]
			got, want, what = s.Quantile(p), refQuantile(ref, p), fmt.Sprintf("boundary Quantile(%v)", p)
		case 4:
			// A p whose rank lands on an existing fence, or beside one.
			k := int(next())
			if s.nf > 0 {
				k = s.fences[k%s.nf] + k%3 - 1
			}
			k = max(0, min(k, len(ref)-1))
			p := 0.0
			if len(ref) > 1 {
				p = float64(k) / float64(len(ref)-1)
			}
			got, want, what = s.Quantile(p), refQuantile(ref, p), fmt.Sprintf("fence-aligned Quantile(%v) (rank %d)", p, k)
		case 5:
			got, want, what = s.Median(), refQuantile(ref, 0.5), "Median"
		case 6:
			switch next() % 4 {
			case 0:
				got, want, what = s.Min(), ref[0], "Min"
			case 1:
				got, want, what = s.Max(), ref[len(ref)-1], "Max"
			case 2:
				x := palette[int(next())%len(palette)]
				n := sort.Search(len(ref), func(i int) bool { return ref[i] > x })
				got, want, what = s.CDFAt(x), float64(n)/float64(len(ref)), fmt.Sprintf("CDFAt(%v)", x)
			case 3:
				vs := s.Values()
				for i := range vs {
					if !sameFloat(vs[i], ref[i]) {
						return fmt.Errorf("step %d: Values()[%d] = %v, want %v", step, i, vs[i], ref[i])
					}
				}
				continue
			}
		}
		if !sameFloat(got, want) {
			return fmt.Errorf("step %d (n=%d): %s = %v, want %v", step, len(ref), what, got, want)
		}
		if err := checkFences(&s); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
	}
	return nil
}

// TestPropertySampleMatchesSortedReference replays random op sequences
// against the sort-a-copy oracle: every quantile, median, min, max, CDF
// value and sorted view must match it bit for bit.
func TestPropertySampleMatchesSortedReference(t *testing.T) {
	seqs := 400
	if testing.Short() {
		seqs = 50
	}
	r := rand.New(rand.NewSource(15))
	for seq := 0; seq < seqs; seq++ {
		ops := make([]byte, 4+r.Intn(120))
		r.Read(ops)
		if err := runSampleOps(ops); err != nil {
			t.Fatalf("sequence %d %q: %v", seq, ops, err)
		}
	}
}

// FuzzSampleQuantile explores op sequences beyond the random ones above,
// against the same oracle.
func FuzzSampleQuantile(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<10 {
			ops = ops[:1<<10]
		}
		if err := runSampleOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// medianOf3Killer builds an input on which each of the first rounds
// median-of-3 Hoare partitions of the search for the maximum peels off
// only two values. It replays the real partition on values that start
// as distinct "gas" (n + original index, above every frozen value) and,
// before each round, freezes the values at the first and middle
// positions to the next two smallest. Later-frozen values exceed
// earlier ones, so every comparison earlier rounds made comes out the
// same on the final input.
func medianOf3Killer(n, rounds int) []float64 {
	work := make([]float64, n)
	for i := range work {
		work[i] = float64(n + i)
	}
	input := slices.Clone(work)
	next := 0.0
	freeze := func(pos int) {
		if work[pos] < float64(n) {
			return // frozen in an earlier round
		}
		input[int(work[pos])-n] = next
		work[pos] = next
		next++
	}
	for lo, hi := 0, n-1; lo < hi && rounds > 0; rounds-- {
		freeze(lo)
		freeze(lo + (hi-lo)/2)
		if j := partition(work, lo, hi); n-1 <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return input
}

// TestSelectRankDepthGuard drives the introselect fallback: on the
// median-of-3 killer the partitions shrink the range by two values a
// round for twice the guard's budget (a killer built for all n/2 rounds
// makes an unguarded search quadratic); the guard must switch to the
// sort and still return the exact maximum. An all-equal input must
// instead be answered without the fallback: Hoare's partition splits
// ties evenly, where a partition that sent ties to one side would go
// quadratic as well.
func TestSelectRankDepthGuard(t *testing.T) {
	const n = 1 << 16
	killer := medianOf3Killer(n, 4*bits.Len(n))
	sorted := slices.Clone(killer)
	sort.Float64s(sorted)

	xs := slices.Clone(killer)
	if !selectRank(xs, n-1) {
		t.Error("median-of-3 killer: selectRank did not fall back to the sort")
	}
	if xs[n-1] != sorted[n-1] {
		t.Errorf("median-of-3 killer: max = %v, want %v", xs[n-1], sorted[n-1])
	}
	var s Sample
	for _, x := range killer {
		s.Add(x)
	}
	for _, p := range []float64{1, 0.999, 0.5, 0} {
		if got, want := s.Quantile(p), refQuantile(sorted, p); got != want {
			t.Errorf("median-of-3 killer: Quantile(%v) = %v, want %v", p, got, want)
		}
	}

	equal := burst(n, 5, 8)
	for _, k := range []int{0, n / 2, n - 1} {
		xs := slices.Clone(equal)
		if selectRank(xs, k) {
			t.Errorf("all-equal: selectRank(%d) fell back to the sort", k)
		}
		if xs[k] != equal[0] {
			t.Errorf("all-equal: rank %d = %v, want %v", k, xs[k], equal[0])
		}
	}
}

var quantileSink float64

// BenchmarkSampleQuantiles is the federated reduction's read pattern
// (p50, p95, p99, then Median) on a fresh unsorted copy of 1.67 M
// lognormal latencies, the size of a 4-site 1000 QPS half-hour's
// front-door buffer. Refilling the buffer is untimed.
func BenchmarkSampleQuantiles(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := make([]float64, 1_670_000)
	for i := range src {
		src[i] = math.Exp(-0.2 + 0.6*r.NormFloat64())
	}
	s := Sample{xs: make([]float64, 0, len(src))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.xs = s.xs[:0]
		for _, x := range src {
			s.Add(x)
		}
		b.StartTimer()
		quantileSink = s.Quantile(0.50) + s.Quantile(0.95) + s.Quantile(0.99) + s.Median()
	}
}
