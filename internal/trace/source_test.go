package trace

import (
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// TestSliceSourceRoundTrip: ReadSource over a SliceSource is the identity.
func TestSliceSourceRoundTrip(t *testing.T) {
	events := randomValidTrace(5)
	got, err := ReadSource(NewSliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("ReadSource(SliceSource) changed the events")
	}
}

// TestMergeSourceMatchesMerge: the streaming k-way merge yields exactly
// the merge oracle — a stable time sort of the remapped inputs — for
// three, five and eight valid traces, and for as many streams dense
// with ties across sources.
func TestMergeSourceMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{3, 5, 8} {
		valid := make([][]Event, k)
		ties := make([][]Event, k)
		for i := range valid {
			valid[i] = randomValidTrace(int64(i + 1))
			deltas := make([]byte, 200)
			for j := range deltas {
				deltas[j] = byte(rng.Intn(3))
			}
			ties[i] = fuzzTrace(deltas, UserID(i+1))
		}
		for _, lists := range [][][]Event{valid, ties} {
			srcs := make([]Source, k)
			for i, l := range lists {
				srcs[i] = NewSliceSource(l)
			}
			got, err := ReadSource(NewMergeSource(srcs...))
			if err != nil {
				t.Fatal(err)
			}
			if want := MergeOracle(lists...); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-way MergeSource diverges from the merge oracle: %d vs %d events", k, len(got), len(want))
			}
		}
	}
}

// TestMergeSourceSingleIdentity: a one-source merge must not remap
// anything — Shards=1 and unsharded generation depend on it.
func TestMergeSourceSingleIdentity(t *testing.T) {
	events := randomValidTrace(4)
	got, err := ReadSource(NewMergeSource(NewSliceSource(events)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("single-source MergeSource altered events")
	}
}

// TestMergeSourceEmpty: no sources and empty sources both end cleanly.
func TestMergeSourceEmpty(t *testing.T) {
	if _, err := ReadOne(NewMergeSource()); err != io.EOF {
		t.Fatalf("empty merge err = %v, want io.EOF", err)
	}
	m := NewMergeSource(NewSliceSource(nil), NewSliceSource(nil))
	if _, err := ReadOne(m); err != io.EOF {
		t.Fatalf("merge of empty sources err = %v, want io.EOF", err)
	}
}

// TestMergeSourceConstantAllocs guards the merge's bounded-memory
// contract: once primed, draining must not allocate per event. (The lead
// is picked by a scan of a fixed item slice; events pass through by
// value.)
func TestMergeSourceConstantAllocs(t *testing.T) {
	a := randomValidTrace(7)
	b := randomValidTrace(8)
	m := NewMergeSource(NewSliceSource(a), NewSliceSource(b))
	one := make([]Event, 1)
	if _, err := m.NextBatch(one); err != nil { // prime: heads + input batches
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(len(a)+len(b)-2, func() {
		if _, err := m.NextBatch(one); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if avg > 0.01 {
		t.Errorf("merge allocates %.2f allocs/event after priming, want 0", avg)
	}
}

// TestWindowSourceMatchesWindow: the streaming window yields exactly the
// window oracle, a direct filter loop over the whole trace.
func TestWindowSourceMatchesWindow(t *testing.T) {
	full := randomValidTrace(9)
	mid := full[len(full)/2].Time
	want := WindowOracle(full, mid, mid+10_000)
	got, err := ReadSource(WindowSource(NewSliceSource(full), mid, mid+10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowSource diverges from the window oracle")
	}
}

// standaloneKinds are event kinds with no open-id pairing, so arbitrary
// interleavings of them stay structurally valid.
var standaloneKinds = [...]Kind{KindUnlink, KindTruncate, KindExec}

// fuzzTrace builds a time-ordered trace from fuzz bytes: each byte is a
// time delta (kind and file derived from it).
func fuzzTrace(data []byte, user UserID) []Event {
	events := make([]Event, 0, len(data))
	tm := Time(0)
	for i, d := range data {
		tm += Time(d)
		events = append(events, Event{
			Time: tm,
			Kind: standaloneKinds[int(d)%len(standaloneKinds)],
			File: FileID(i%9 + 1),
			User: user,
			Size: int64(d),
		})
	}
	return events
}

// FuzzMergeSource is the k-way merge's property test: for arbitrary
// time-ordered inputs the merged stream is length-preserving, sorted by
// time, content-preserving up to identifier remapping (event kinds and
// size sums survive), and equal event for event to the merge oracle.
func FuzzMergeSource(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{2}, []byte{})
	f.Add([]byte{0, 0, 0}, []byte{0, 0}, []byte{255, 255})
	f.Add([]byte{10, 20}, []byte{15, 5, 30}, []byte{1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		srcs := [][]Event{fuzzTrace(a, 1), fuzzTrace(b, 2), fuzzTrace(c, 3)}
		merged, err := ReadSource(NewMergeSource(
			NewSliceSource(srcs[0]), NewSliceSource(srcs[1]), NewSliceSource(srcs[2])))
		if err != nil {
			t.Fatal(err)
		}
		want := len(srcs[0]) + len(srcs[1]) + len(srcs[2])
		if len(merged) != want {
			t.Fatalf("merge not length-preserving: %d events in, %d out", want, len(merged))
		}
		var wantCounts, gotCounts Counts
		var wantSize, gotSize int64
		for _, src := range srcs {
			for _, e := range src {
				wantCounts.Add(e)
				wantSize += e.Size
			}
		}
		for i, e := range merged {
			if i > 0 && e.Time < merged[i-1].Time {
				t.Fatalf("merge output not time-ordered at %d: %v after %v", i, e.Time, merged[i-1].Time)
			}
			gotCounts.Add(e)
			gotSize += e.Size
		}
		if wantCounts != gotCounts || wantSize != gotSize {
			t.Fatalf("merge lost content: counts %v vs %v, size %d vs %d",
				wantCounts, gotCounts, wantSize, gotSize)
		}
		for i, e := range MergeOracle(srcs...) {
			if merged[i] != e {
				t.Fatalf("merge event %d = %+v, oracle %+v", i, merged[i], e)
			}
		}
	})
}
