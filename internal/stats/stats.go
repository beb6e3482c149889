// Package stats provides the measurement substrate used by every
// experiment in the HPC-Whisk reproduction: sample quantiles and CDFs,
// time-weighted state accounting over the virtual clock, per-minute
// time series, and streaming moments.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Sample accumulates scalar observations and answers distributional
// queries exactly. The zero value is ready to use.
//
// Quantiles are answered by selection, not by sorting. Quantile moves
// each order statistic it reads into its sorted position with an
// in-place introselect and records that position as a fence: no larger
// value sits before a fence and no smaller one after it. A later
// quantile therefore only partitions the segment between the two
// nearest fences, as incremental quicksort does (Paredes & Navarro,
// ALENEX 2006), and reading the few quantiles of a report costs a small
// multiple of n instead of a sort. Once maxFences are recorded, or if a
// NaN was added, the next quantile sorts instead, so any number of
// quantiles costs at most a bounded number of selections plus one sort.
// Add clears the fences. Min, Max, CDFAt, Values and CDF sort the whole
// buffer, after which every query indexes it directly.
//
// Every answer equals the one a full sort gives, bit for bit, except
// that the sign of a zero is unspecified, as it is for sort.Float64s.
// Selection does permute the storage order without sorting it, and
// Mean and Summarize sum in storage order: on an unsorted sample they
// may differ in the last bits when read after a Quantile rather than
// before. Callers read them first, after a full sort, or on
// integer-valued samples, whose sums are exact in any order.
type Sample struct {
	xs     []float64
	sorted bool
	nan    bool // a NaN was added: quantiles sort rather than select

	nf     int            // fences in use
	fences [maxFences]int // ascending positions that hold their order statistic
}

// maxFences bounds the selections between two Adds before a quantile
// sorts instead. A report reads at most three or four quantiles, two
// ranks each.
const maxFences = 8

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.nf = 0
	if math.IsNaN(x) {
		s.nan = true
	}
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) with linear interpolation
// between the order statistics of ranks ⌊p(n−1)⌋ and ⌊p(n−1)⌋+1.
// It panics if the sample is empty.
func (s *Sample) Quantile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		panic("stats: quantile of empty sample")
	}
	if p <= 0 {
		return s.rank(0)
	}
	if p >= 1 {
		return s.rank(n - 1)
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return s.rank(n - 1)
	}
	return s.rank(i)*(1-frac) + s.rank(i+1)*frac
}

// rank returns the k-th smallest observation (0-based), selecting it
// between the nearest fences unless the sample is sorted or is sorted
// now.
func (s *Sample) rank(k int) float64 {
	if !s.sorted && (s.nan || s.nf == maxFences) {
		s.ensureSorted()
	}
	if s.sorted {
		return s.xs[k]
	}
	x := s.xs[k] // bounds check: a NaN p fails here as on a sorted sample
	f := s.fences[:s.nf]
	j, found := slices.BinarySearch(f, k)
	if found {
		return x
	}
	lo, hi := 0, len(s.xs)
	if j > 0 {
		lo = f[j-1] + 1
	}
	if j < len(f) {
		hi = f[j]
	}
	selectRank(s.xs[lo:hi], k-lo)
	copy(s.fences[j+1:s.nf+1], f[j:])
	s.fences[j] = k
	s.nf++
	return s.xs[k]
}

// selectRank permutes xs so that xs[k] holds its k-th smallest value,
// with no larger value before it and no smaller one after it. It is an
// introselect: it narrows [lo, hi] to the side of each partition that
// holds k, and once 2·bits.Len(n) partitions (about 2·log2 n) have not
// finished, it sorts what is left, which bounds the worst case by
// O(n log n). A k at the bottom of the range, such as the rank just
// above a fence, is found by one scan for the minimum instead. It
// reports whether it fell back to the sort. xs must hold no NaN.
func selectRank(xs []float64, k int) (sorted bool) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if k == lo {
			m := lo
			for i := lo + 1; i <= hi; i++ {
				if xs[i] < xs[m] {
					m = i
				}
			}
			xs[k], xs[m] = xs[m], xs[k]
			return false
		}
		if budget == 0 {
			slices.Sort(xs[lo : hi+1])
			return true
		}
		if j := partition(xs, lo, hi); k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return false
}

// partition is Hoare's partition of xs[lo..hi] (lo < hi) around the
// median of its first, middle and last values. It returns j with
// lo ≤ j < hi such that no value in xs[lo..j] exceeds any value in
// xs[j+1..hi]. Values equal to the pivot stop both scans, so ties split
// evenly instead of piling onto one side.
func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
	}
	pivot := xs[mid]
	i, j := lo-1, hi+1
	for {
		for i++; xs[i] < pivot; i++ {
		}
		for j--; pivot < xs[j]; j-- {
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean; 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation. It panics if empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		panic("stats: min of empty sample")
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation. It panics if empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		panic("stats: max of empty sample")
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// CDFAt returns the fraction of observations ≤ x.
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	n := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	return float64(n) / float64(len(s.xs))
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// CDF renders the sample as (x, F(x)) points at the given probe points,
// e.g. to regenerate the paper's CDF figures.
func (s *Sample) CDF(probes []float64) []CDFPoint {
	out := make([]CDFPoint, len(probes))
	for i, x := range probes {
		out[i] = CDFPoint{X: x, F: s.CDFAt(x)}
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// Welford tracks streaming mean and variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Histogram counts observations into fixed-width bins over [Lo, Hi).
type Histogram struct {
	Lo, Hi   float64
	Bins     []int
	Under    int
	Over     int
	binWidth float64
}

// NewHistogram builds a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%v,%v)/%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n), binWidth: (hi - lo) / float64(n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.binWidth)
		if i >= len(h.Bins) {
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() int {
	n := h.Under + h.Over
	for _, b := range h.Bins {
		n += b
	}
	return n
}
