package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.StdDev() != 0 {
		t.Fatalf("zero value not neutral: %+v", w)
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if got, want := w.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := w.StdDev(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.StdDev() != 0 || w.Min() != 42 || w.Max() != 42 {
		t.Errorf("single observation: mean=%v sd=%v min=%v max=%v", w.Mean(), w.StdDev(), w.Min(), w.Max())
	}
}

func TestWelfordNegativeValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{-3, -1, 1, 3} {
		w.Add(x)
	}
	if w.Mean() != 0 {
		t.Errorf("Mean = %v, want 0", w.Mean())
	}
	if w.Min() != -3 || w.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

// Property: Welford's mean and variance match the naive two-pass
// computation for arbitrary inputs.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		if len(xs) == 0 {
			return w.N() == 0
		}
		mean := sum / float64(len(xs))
		if math.Abs(w.Mean()-mean) > 1e-6*(1+math.Abs(mean)) {
			return false
		}
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		naive := varSum / float64(len(xs))
		return math.Abs(w.Variance()-naive) <= 1e-6*(1+naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	h.Add(5, 1)   // bucket 0 (<=10)
	h.Add(10, 1)  // bucket 0 (boundary is inclusive)
	h.Add(11, 1)  // bucket 1
	h.Add(30, 1)  // bucket 2
	h.Add(100, 1) // overflow
	wantWeights := []float64{2, 1, 1, 1}
	for i, want := range wantWeights {
		if _, w := h.Bucket(i); w != want {
			t.Errorf("bucket %d weight = %v, want %v", i, w, want)
		}
	}
	if b, _ := h.Bucket(3); b != 100 {
		t.Errorf("overflow bound = %v, want 100 (max seen)", b)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %v, want 5", h.Total())
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewLinearHistogram(10, 1)
	for i := 1; i <= 10; i++ {
		h.Add(float64(i), 1)
	}
	cdf := h.CDF()
	if len(cdf) != 10 {
		t.Fatalf("CDF has %d points, want 10", len(cdf))
	}
	if got := cdf.FractionAtOrBelow(5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FractionAtOrBelow(5) = %v, want 0.5", got)
	}
	if got := cdf.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := cdf.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want first bound 1", got)
	}
	if got := cdf.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want 10", got)
	}
}

func TestHistogramWeighted(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Add(1, 3)
	h.Add(2, 1)
	if got := h.CDF().FractionAtOrBelow(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("FractionAtOrBelow(1) = %v, want 0.75", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLinearHistogram(5, 1)
	if h.CDF() != nil {
		t.Errorf("empty histogram CDF should be nil")
	}
	if h.CDF().FractionAtOrBelow(100) != 0 {
		t.Errorf("empty histogram fraction should be 0")
	}
}

func TestHistogramZeroWeightIgnored(t *testing.T) {
	h := NewLinearHistogram(5, 1)
	h.Add(3, 0)
	if h.Total() != 0 {
		t.Errorf("zero-weight add should not change total")
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":         func() { NewHistogram(nil) },
		"descending":    func() { NewHistogram([]float64{2, 1}) },
		"duplicate":     func() { NewHistogram([]float64{1, 1}) },
		"linearZeroN":   func() { NewLinearHistogram(0, 1) },
		"logBadRatio":   func() { NewLogHistogram(1, 1, 5) },
		"logZeroFirst":  func() { NewLogHistogram(0, 2, 5) },
		"linearNegWide": func() { NewLinearHistogram(5, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		})
	}
}

func TestLogHistogramBounds(t *testing.T) {
	h := NewLogHistogram(1, 2, 4) // bounds 1,2,4,8
	h.Add(3, 1)
	if _, w := h.Bucket(2); w != 1 {
		t.Errorf("value 3 should land in bucket with bound 4")
	}
	b, _ := h.Bucket(3)
	if b != 8 {
		t.Errorf("bucket 3 bound = %v, want 8", b)
	}
}

func TestCDFInterpolation(t *testing.T) {
	c := CDF{{X: 10, Fraction: 0.5}, {X: 20, Fraction: 1.0}}
	if got := c.FractionAtOrBelow(15); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("interpolated fraction = %v, want 0.75", got)
	}
	if got := c.FractionAtOrBelow(5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("below-first interpolation from origin = %v, want 0.25", got)
	}
	if got := c.FractionAtOrBelow(25); got != 1 {
		t.Errorf("beyond-last = %v, want 1", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.FractionAtOrBelow(1) != 0 || c.Quantile(0.5) != 0 {
		t.Errorf("empty CDF should return zeros")
	}
}

// Property: a histogram CDF is non-decreasing in both X and Fraction and
// ends at fraction 1.
func TestHistogramCDFMonotonic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLogHistogram(1, 2, 20)
		count := int(n%50) + 1
		for i := 0; i < count; i++ {
			h.Add(rng.Float64()*2e6, rng.Float64()*100+0.01)
		}
		cdf := h.CDF()
		if len(cdf) == 0 {
			return false
		}
		if math.Abs(cdf[len(cdf)-1].Fraction-1) > 1e-9 {
			return false
		}
		return sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].X < cdf[j].X }) &&
			sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].Fraction < cdf[j].Fraction })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and FractionAtOrBelow are approximate inverses on
// bucket boundaries.
func TestQuantileFractionInverse(t *testing.T) {
	h := NewLinearHistogram(100, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64()*100, 1)
	}
	cdf := h.CDF()
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := cdf.Quantile(p)
		f := cdf.FractionAtOrBelow(x)
		if f < p-1e-9 {
			t.Errorf("FractionAtOrBelow(Quantile(%v)) = %v < %v", p, f, p)
		}
	}
}

// exactQuantile is CDF.Quantile's oracle. With the values sorted, the
// q-quantile is the smallest rank r >= 1 whose share r/n reaches q; the
// CDF reports the upper bound of the bucket holding the r-th value, or
// the largest value seen when that bucket is the overflow bucket.
func exactQuantile(h *Histogram, values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	r := 1
	for r < n && float64(r)/float64(n) < q {
		r++
	}
	i := h.BucketOf(s[r-1])
	if i == len(h.bounds) {
		return s[n-1]
	}
	return h.bounds[i]
}

// checkQuantiles holds CDF.Quantile to the oracle at a spread of q and,
// for small samples, at every rank share r/n, where a bucket edge can
// meet q exactly.
func checkQuantiles(t *testing.T, h *Histogram, values []float64) {
	t.Helper()
	cdf := h.CDF()
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	if n := len(values); n <= 50 {
		for r := 1; r < n; r++ {
			qs = append(qs, float64(r)/float64(n))
		}
	}
	for _, q := range qs {
		if got, want := cdf.Quantile(q), exactQuantile(h, values, q); got != want {
			t.Fatalf("Quantile(%g) = %g, exact %g", q, got, want)
		}
	}
}

// TestHistogramQuantileProperty drives seeded random workloads with
// several bucket layouts through the oracle comparison. Values run past
// the last bound, so the overflow bucket is covered too.
func TestHistogramQuantileProperty(t *testing.T) {
	layouts := []struct {
		name   string
		bounds []float64
	}{
		{"linear", NewLinearHistogram(50, 10).bounds},
		{"exp", NewLogHistogram(1, 2, 16).bounds},
		{"single", []float64{100}},
	}
	for _, layout := range layouts {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			last := layout.bounds[len(layout.bounds)-1]
			n := 1 + rng.Intn(2000)
			if seed%2 == 0 {
				n = 1 + rng.Intn(20)
			}
			values := make([]float64, n)
			h := NewHistogram(layout.bounds)
			for i := range values {
				// Mix of in-range values, overflow values and exact
				// bound hits.
				v := rng.Float64() * last * 1.1
				if rng.Intn(10) == 0 {
					v = layout.bounds[rng.Intn(len(layout.bounds))]
				}
				values[i] = v
				h.Add(v, 1)
			}
			checkQuantiles(t, h, values)
			if h.Total() != float64(n) {
				t.Fatalf("%s seed %d: Total() = %g, want %d", layout.name, seed, h.Total(), n)
			}
		}
	}
}

// FuzzHistogramQuantile feeds arbitrary byte-derived value streams and
// quantiles through the oracle comparison. Runs in the CI fuzz smoke.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0.5)
	f.Add([]byte{255, 0, 128}, 0.99)
	f.Add([]byte{0}, 0.0)
	bounds := NewLinearHistogram(32, 8).bounds
	last := bounds[len(bounds)-1]
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if len(data) == 0 {
			return
		}
		if math.IsNaN(q) || q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		values := make([]float64, len(data))
		h := NewHistogram(bounds)
		for i, b := range data {
			// Bytes scale onto [0, 1.25·last]: the top fifth of the
			// byte range lands in the overflow bucket.
			v := float64(b) / 255 * last * 1.25
			values[i] = v
			h.Add(v, 1)
		}
		if got, want := h.CDF().Quantile(q), exactQuantile(h, values, q); got != want {
			t.Fatalf("Quantile(%g) = %g, exact %g", q, got, want)
		}
	})
}

// BucketOf names the bucket Add files a value under, boundaries included.
func TestHistogramBucketOfMatchesAdd(t *testing.T) {
	bounds := []float64{10, 20, 30}
	for _, x := range []float64{-1, 0, 5, 10, 10.000001, 19.99, 20, 30, 30.5, 1e9} {
		h := NewHistogram(bounds)
		h.Add(x, 1)
		i := h.BucketOf(x)
		if _, w := h.Bucket(i); w != 1 {
			t.Errorf("BucketOf(%v) = %d, but Add filed it elsewhere", x, i)
		}
	}
}

// bucketOfProbes returns the values BucketOf must agree with the search
// on for bounds b: every bound and both its float neighbours, the
// special values, and random values over and around the bounds' range.
func bucketOfProbes(b []float64, rng *rand.Rand) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.NaN(),
		math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	for _, x := range b {
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	lo, hi := b[0], b[len(b)-1]
	for i := 0; i < 2000; i++ {
		xs = append(xs, lo+(hi-lo)*(rng.Float64()*1.2-0.1))
		if lo > 0 {
			xs = append(xs, lo*math.Pow(hi/lo, rng.Float64()*1.4-0.2))
		}
	}
	return xs
}

// TestBucketOfMatchesSearch pins BucketOf's table to the binary search
// it replaces, on every histogram shape the repository builds, and the
// table's size on the positive ones.
func TestBucketOfMatchesSearch(t *testing.T) {
	cases := []struct {
		name     string
		h        *Histogram
		maxCells int // 0: no table, BucketOf searches
	}{
		{"analyzer sizes 64/1.3/60", NewLogHistogram(64, 1.3, 60), 128},
		{"analyzer times 0.01/1.25/70", NewLogHistogram(0.01, 1.25, 70), 128},
		{"analyzer lifetimes linear 600x1", NewLinearHistogram(600, 1), 5000},
		{"cachesim and fault ages 0.01/1.35/60", NewLogHistogram(0.01, 1.35, 60), 128},
		{"first bound negative", NewHistogram([]float64{-5, -1, 0.5, 3, 100}), 0},
		{"first bound zero", NewHistogram([]float64{0, 1, 2, 4}), 0},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		h := c.h
		if n := len(h.cells); (n == 0) != (c.maxCells == 0) || n > c.maxCells {
			t.Errorf("%s: table of %d cells, want %d at most (0: none)", c.name, n, c.maxCells)
		}
		for _, x := range bucketOfProbes(h.bounds, rng) {
			if got, want := h.BucketOf(x), sort.SearchFloat64s(h.bounds, x); got != want {
				t.Errorf("%s: BucketOf(%v) = %d, search gives %d", c.name, x, got, want)
			}
		}
	}
}

// FuzzHistogramBucketOf: for any histogram shape, BucketOf equals the
// binary search. first > 0 builds geometric bounds (a table); otherwise
// the bounds step linearly from first (the search).
func FuzzHistogramBucketOf(f *testing.F) {
	f.Add(64.0, 1.3, 60, 1000.0)
	f.Add(0.01, 1.25, 70, 0.5)
	f.Add(1.0, 1.0000001, 40, 1.00000015)
	f.Add(-3.0, 0.5, 10, 0.0)
	f.Add(1e-310, 2.0, 30, 1e-300)
	f.Fuzz(func(t *testing.T, first, ratio float64, n int, x float64) {
		if n < 1 || n > 1000 || !(ratio > 0) || math.IsInf(ratio, 1) {
			t.Skip()
		}
		bounds := make([]float64, n)
		for i := range bounds {
			if first > 0 {
				bounds[i] = first * math.Pow(ratio, float64(i))
			} else {
				bounds[i] = first + ratio*float64(i)
			}
			if math.IsNaN(bounds[i]) || i > 0 && !(bounds[i] > bounds[i-1]) {
				t.Skip()
			}
		}
		h := NewHistogram(bounds)
		for _, v := range append(bucketOfProbes(bounds, rand.New(rand.NewSource(int64(n)))), x) {
			if got, want := h.BucketOf(v), sort.SearchFloat64s(bounds, v); got != want {
				t.Fatalf("bounds %v: BucketOf(%v) = %d, search gives %d", bounds, v, got, want)
			}
		}
	})
}
