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
	if got := h.FractionAtOrBelow(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("FractionAtOrBelow(1) = %v, want 0.75", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLinearHistogram(5, 1)
	if h.CDF() != nil {
		t.Errorf("empty histogram CDF should be nil")
	}
	if h.FractionAtOrBelow(100) != 0 {
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
