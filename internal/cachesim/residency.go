package cachesim

import (
	"math/bits"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

// Result.Residency is a log-spaced histogram of residency times spanning
// 10 ms to days. Every drop records one residency, so rather than run
// the histogram's binary search over float bounds each time, a replay
// counts drops per bucket through an integer table built from the
// histogram's own comparison, and folds the counts into the histogram
// once, at the end.

// numResidencyBuckets is the residency histogram's bucket count: 60
// bounds plus overflow.
const numResidencyBuckets = 61

func newResidencyHistogram() *stats.Histogram { return stats.NewLogHistogram(0.01, 1.35, 60) }

// residencyTable maps a residency in integer milliseconds to its
// histogram bucket. It is shared read-only by every replay.
var residencyTable = buildResidencyTable()

type residencyTab struct {
	// hist is an empty residency histogram, cloned per result.
	hist *stats.Histogram
	// upper[i] is the longest residency the histogram files in bucket i
	// or below; the overflow bucket has no entry.
	upper [numResidencyBuckets - 1]trace.Time
	// start[k] is the bucket of the shortest residency whose bit length
	// is k, so a lookup begins at most a few buckets below its answer.
	start [64]uint8
}

func buildResidencyTable() *residencyTab {
	t := &residencyTab{hist: newResidencyHistogram()}
	if t.hist.NumBuckets() != numResidencyBuckets {
		panic("cachesim: residency histogram bucket count mismatch")
	}
	bucket := func(d int64) int { return t.hist.BucketOf(trace.Time(d).Seconds()) }
	for i := range t.upper {
		// The bucket is monotone in d: bucket(0) <= i < bucket(2^62).
		lo, hi := int64(0), int64(1)<<62
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if bucket(mid) <= i {
				lo = mid
			} else {
				hi = mid
			}
		}
		t.upper[i] = trace.Time(lo)
	}
	for k := range t.start {
		var d int64
		if k > 0 {
			d = int64(1) << (k - 1)
		}
		t.start[k] = uint8(bucket(d))
	}
	return t
}

// residencyBucket returns the histogram bucket of a residency d >= 0.
func residencyBucket(d trace.Time) int {
	t := residencyTable
	b := int(t.start[bits.Len64(uint64(d))])
	for b < len(t.upper) && d > t.upper[b] {
		b++
	}
	return b
}

// residencyCDF folds per-bucket drop counts into the residency
// histogram and returns its CDF. longest is the longest residency in the
// overflow bucket, whose bound the histogram reports as the maximum
// value seen.
func residencyCDF(counts *[numResidencyBuckets]int64, longest trace.Time) stats.CDF {
	h := residencyTable.hist.Clone()
	for i, n := range counts {
		if n == 0 {
			continue
		}
		x := longest.Seconds()
		if i < len(residencyTable.upper) {
			x, _ = h.Bucket(i)
		}
		h.Add(x, float64(n))
	}
	return h.CDF()
}
