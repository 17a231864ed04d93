// Package stats provides the small statistical toolkit used throughout the
// trace analyses: running mean/standard-deviation accumulators (Welford's
// method), weighted histograms with linear or logarithmic bucketing, and
// cumulative distribution functions.
//
// The paper reports almost all of its results either as a mean with a
// standard deviation (Table IV) or as a cumulative distribution weighted by
// count or by bytes (Figures 1-4), so those two shapes are the core of this
// package.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a running mean and variance using Welford's online
// algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations added.
func (w *Welford) N() int64 { return w.n }

// Mean returns the arithmetic mean of the observations, or 0 if none.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 if none.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 if none.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// String formats the accumulator as "mean (± stddev)", the notation used in
// the paper's Table IV.
func (w *Welford) String() string {
	return fmt.Sprintf("%.1f (± %.1f)", w.Mean(), w.StdDev())
}

// Point is one point of a cumulative distribution: Fraction (in [0,1]) of
// the total weight lies at values <= X.
type Point struct {
	X        float64
	Fraction float64
}

// CDF is a cumulative distribution function represented as a non-decreasing
// sequence of points sorted by X.
type CDF []Point

// FractionAtOrBelow returns the fraction of weight at values <= x,
// interpolating linearly between points. It returns 0 below the first point
// and 1 at or above the last.
func (c CDF) FractionAtOrBelow(x float64) float64 {
	if len(c) == 0 {
		return 0
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].X >= x })
	if i == len(c) {
		return 1
	}
	if c[i].X == x {
		return c[i].Fraction
	}
	if i == 0 {
		// Interpolate from an implicit origin at (0, 0) when the first
		// bucket starts above zero; otherwise clamp.
		if c[0].X > 0 && x > 0 {
			return c[0].Fraction * x / c[0].X
		}
		return 0
	}
	x0, f0 := c[i-1].X, c[i-1].Fraction
	x1, f1 := c[i].X, c[i].Fraction
	if x1 == x0 {
		return f1
	}
	return f0 + (f1-f0)*(x-x0)/(x1-x0)
}

// Quantile returns the smallest X such that at least fraction p of the
// weight lies at or below X. p is clamped to [0,1].
func (c CDF) Quantile(p float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if p <= 0 {
		return c[0].X
	}
	if p >= 1 {
		return c[len(c)-1].X
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].Fraction >= p })
	if i == len(c) {
		return c[len(c)-1].X
	}
	return c[i].X
}

// Histogram is a weighted histogram over float64 values with explicit
// bucket upper bounds. Values beyond the last bound accumulate in an
// overflow bucket whose nominal X is the largest value seen.
type Histogram struct {
	bounds  []float64 // sorted ascending; bucket i holds (bounds[i-1], bounds[i]]
	weights []float64 // len(bounds)+1; last is overflow
	total   float64
	maxSeen float64
	anySeen bool

	// cells is BucketOf's lookup table, nil when the bounds do not
	// allow one (see newCells). Like bounds it is immutable and shared
	// by clones.
	cells     []int32
	cellShift uint   // a value's cell key is its float bits >> cellShift
	cellBase  uint64 // the key of bounds[0], the key of cells[0]
}

// maxCells caps BucketOf's table; bounds that would need more cells
// keep the binary search.
const maxCells = 1 << 16

// newCells builds BucketOf's table for all-positive, finite bounds.
// For a positive float the top bits of its IEEE representation (the
// exponent and the leading mantissa bits) grow with its value, so
// shifting them out cuts the positive axis into cells: each octave is
// split into 2^m equal cells. The table takes the smallest m for which
// no cell holds two bounds, so each entry — the bucket of the cell's
// smallest value — is at most one step from the bucket of any value in
// the cell.
func (h *Histogram) newCells() {
	b := h.bounds
	for _, x := range b {
		if !(x > 0 && x <= math.MaxFloat64) {
			return
		}
	}
	first, last := math.Float64bits(b[0]), math.Float64bits(b[len(b)-1])
	for m := uint(0); m <= 52; m++ {
		shift := 52 - m
		if last>>shift-first>>shift >= maxCells {
			return
		}
		distinct := true
		for i := 1; i < len(b) && distinct; i++ {
			distinct = math.Float64bits(b[i])>>shift != math.Float64bits(b[i-1])>>shift
		}
		if !distinct {
			continue
		}
		h.cellShift, h.cellBase = shift, first>>shift
		h.cells = make([]int32, last>>shift-h.cellBase+1)
		j := 0
		for c := range h.cells {
			lo := math.Float64frombits((h.cellBase + uint64(c)) << shift)
			for j < len(b) && b[j] < lo {
				j++
			}
			h.cells[c] = int32(j)
		}
		return
	}
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics if bounds is empty or not strictly ascending, because a
// histogram with no buckets is always a programming error in this codebase.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: NewHistogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewHistogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, weights: make([]float64, len(b)+1)}
	h.newCells()
	return h
}

// NewLinearHistogram creates a histogram with n buckets of the given width,
// covering (0, n*width], plus an overflow bucket.
func NewLinearHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: NewLinearHistogram needs positive n and width")
	}
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = width * float64(i+1)
	}
	return NewHistogram(bounds)
}

// NewLogHistogram creates a histogram whose bucket bounds grow geometrically
// from first by the given ratio for n buckets. The paper's figures span four
// to six decades (bytes from 1 to 10^7, times from 10 ms to hours), so
// log-spaced buckets are the default for CDFs.
func NewLogHistogram(first, ratio float64, n int) *Histogram {
	if n <= 0 || first <= 0 || ratio <= 1 {
		panic("stats: NewLogHistogram needs positive first, ratio > 1, n > 0")
	}
	bounds := make([]float64, n)
	x := first
	for i := range bounds {
		bounds[i] = x
		x *= ratio
	}
	return NewHistogram(bounds)
}

// Clone returns an independent copy of the histogram: adding to either
// copy leaves the other untouched. Bucket bounds are immutable after
// construction and are shared, not copied.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.weights = append([]float64(nil), h.weights...)
	return &c
}

// Add records one observation of value x with the given weight. Weight is
// typically 1 (count-weighted CDFs) or a byte count (byte-weighted CDFs).
func (h *Histogram) Add(x, weight float64) {
	if weight == 0 {
		return
	}
	if !h.anySeen || x > h.maxSeen {
		h.maxSeen = x
		h.anySeen = true
	}
	h.weights[h.BucketOf(x)] += weight
	h.total += weight
}

// BucketOf returns the index of the bucket Add files x under: the first
// index with bounds[i] >= x, which is exactly the bucket for
// (bounds[i-1], bounds[i]], or the overflow bucket len(bounds) for x
// beyond the last bound or NaN. It always equals
// sort.SearchFloat64s(bounds, x); with a table it takes O(1) steps.
func (h *Histogram) BucketOf(x float64) int {
	if h.cells == nil {
		return sort.SearchFloat64s(h.bounds, x)
	}
	if !(x > h.bounds[0]) {
		if math.IsNaN(x) {
			return len(h.bounds)
		}
		return 0
	}
	// x > bounds[0] > 0, so its key is at least cellBase.
	k := math.Float64bits(x)>>h.cellShift - h.cellBase
	if k >= uint64(len(h.cells)) {
		return len(h.bounds)
	}
	i := int(h.cells[k])
	for i < len(h.bounds) && h.bounds[i] < x {
		i++
	}
	return i
}

// Total returns the total weight added.
func (h *Histogram) Total() float64 { return h.total }

// Bucket returns the upper bound and accumulated weight of bucket i.
// Buckets are indexed 0..NumBuckets()-1; the final bucket is overflow and
// its bound is the maximum value observed.
func (h *Histogram) Bucket(i int) (bound, weight float64) {
	if i < len(h.bounds) {
		return h.bounds[i], h.weights[i]
	}
	return h.maxSeen, h.weights[len(h.bounds)]
}

// NumBuckets returns the number of buckets including overflow.
func (h *Histogram) NumBuckets() int { return len(h.bounds) + 1 }

// CDF returns the cumulative distribution of the added weight. Empty
// buckets are skipped so the result is compact.
func (h *Histogram) CDF() CDF {
	if h.total == 0 {
		return nil
	}
	var out CDF
	cum := 0.0
	for i := 0; i < h.NumBuckets(); i++ {
		bound, w := h.Bucket(i)
		if w == 0 {
			continue
		}
		cum += w
		out = append(out, Point{X: bound, Fraction: cum / h.total})
	}
	return out
}
