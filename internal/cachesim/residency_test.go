package cachesim

import (
	"math/rand"
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
)

// The residency table files every residency in the bucket the
// histogram itself would, at each bucket boundary and between them.
func TestResidencyBucketMatchesHistogram(t *testing.T) {
	h := newResidencyHistogram()
	check := func(d trace.Time) {
		if d < 0 {
			return
		}
		if got, want := residencyBucket(d), h.BucketOf(d.Seconds()); got != want {
			t.Errorf("residency %d ms: bucket %d, histogram says %d", d, got, want)
		}
	}
	for _, u := range residencyTable.upper {
		check(u - 1)
		check(u)
		check(u + 1)
	}
	for k := 0; k < 63; k++ {
		check(trace.Time(1)<<k - 1)
		check(trace.Time(1) << k)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		check(trace.Time(rng.Int63n(1 << uint(rng.Intn(45)+1))))
	}
}

// Folding per-bucket counts yields the same CDF as adding every
// residency to the histogram one by one, overflow bucket included.
func TestResidencyCDFMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := newResidencyHistogram()
	var counts [numResidencyBuckets]int64
	var longest trace.Time
	for i := 0; i < 5000; i++ {
		d := trace.Time(rng.Int63n(1 << uint(rng.Intn(40)+1)))
		h.Add(d.Seconds(), 1)
		b := residencyBucket(d)
		counts[b]++
		if b == numResidencyBuckets-1 && d > longest {
			longest = d
		}
	}
	if counts[numResidencyBuckets-1] == 0 {
		t.Fatal("no residency reached the overflow bucket")
	}
	if got, want := residencyCDF(&counts, longest), h.CDF(); !reflect.DeepEqual(got, want) {
		t.Errorf("folded CDF\n got %v\nwant %v", got, want)
	}
}
