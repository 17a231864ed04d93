package analyzer

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

var (
	seed1Once   sync.Once
	seed1Events []trace.Event
	seed1Err    error
)

// seed1Trace returns the 8-hour seed-1 A5 trace, generated once per test
// binary.
func seed1Trace(t testing.TB) []trace.Event {
	t.Helper()
	seed1Once.Do(func() {
		_, seed1Err = workload.GenerateStream(
			workload.Config{Profile: "A5", Seed: 1, Duration: 8 * trace.Hour},
			func(e trace.Event) error { seed1Events = append(seed1Events, e); return nil })
	})
	if seed1Err != nil {
		t.Fatal(seed1Err)
	}
	return seed1Events
}

// TestMarshalBinaryPinned pins the stream's checkpoint bytes at two
// points of the 8h seed-1 A5 trace. fstraced's checkpoints and the
// benchmark census's restore check embed them, so how the stream holds
// its tables must not change them. The digests were taken when the
// tables were Go maps serialized in sorted key order.
func TestMarshalBinaryPinned(t *testing.T) {
	events := seed1Trace(t)
	pins := []struct {
		events, size int
		sha          string
	}{
		{62641, 40813, "3e4bb6e3e0bbe0e8a1e58518532f68fb5b239c4044c785fb7bc9e0e0cf3dae8b"},
		{125283, 56885, "9bc63a70c3914e971b634100c6379cb43f79d985265522b9396a58ed8de9a14c"},
	}
	if len(events) != pins[1].events {
		t.Fatalf("the trace has %d events, want %d", len(events), pins[1].events)
	}
	s := NewStream(Options{})
	fed := 0
	for _, p := range pins {
		for ; fed < p.events; fed++ {
			s.Feed(events[fed])
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); len(blob) != p.size || got != p.sha {
			t.Errorf("after %d events: %d bytes, SHA-256 %s; want %d bytes, %s",
				p.events, len(blob), got, p.size, p.sha)
		}
	}
}

// spread renames the file, open and user IDs of events by a strictly
// increasing map onto sparse values: the k-th smallest ID of each kind
// becomes (k+1)<<40, or (k+1)<<20 for users. Order-preserving renaming
// changes no result of the analysis, since the stream visits users in ID
// order, but it moves every ID out of the tables' dense range. It
// returns the renamed events and the inverse of the file map.
func spread(events []trace.Event) ([]trace.Event, map[trace.FileID]trace.FileID) {
	var files []trace.FileID
	var opens []trace.OpenID
	var users []trace.UserID
	for _, e := range events {
		files = append(files, e.File)
		opens = append(opens, e.OpenID)
		users = append(users, e.User)
	}
	files, opens, users = sortedSet(files), sortedSet(opens), sortedSet(users)
	out := make([]trace.Event, len(events))
	for i, e := range events {
		f, _ := slices.BinarySearch(files, e.File)
		o, _ := slices.BinarySearch(opens, e.OpenID)
		u, _ := slices.BinarySearch(users, e.User)
		e.File = trace.FileID(f+1) << 40
		e.OpenID = trace.OpenID(o+1) << 40
		e.User = trace.UserID(u+1) << 20
		out[i] = e
	}
	back := make(map[trace.FileID]trace.FileID, len(files))
	for k, f := range files {
		back[trace.FileID(k+1)<<40] = f
	}
	return out, back
}

func sortedSet[T trace.FileID | trace.OpenID | trace.UserID](ids []T) []T {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// withoutEncodedSize clears the one result that measures the IDs
// themselves: the binary trace's size grows with the varints that
// encode them.
func withoutEncodedSize(a *Analysis) *Analysis {
	c := *a
	c.Overall.EncodedSize = 0
	return &c
}

// TestSparseIDsSameAnalysis: the 8h seed-1 A5 trace, with its IDs spread
// in order to sparse values, analyzes to the same results, and its top
// files are the same files, found on the tables' sparse side.
func TestSparseIDsSameAnalysis(t *testing.T) {
	events := seed1Trace(t)
	sparse, back := spread(events)
	want := Analyze(events, Options{})
	got := Analyze(sparse, Options{})
	if !reflect.DeepEqual(withoutEncodedSize(got), withoutEncodedSize(want)) {
		t.Errorf("analysis with spread IDs differs from the analysis as generated")
	}

	dense, spreadTop := NewTopAccum(), NewTopAccum()
	for i := range events {
		dense.Feed(events[i])
		spreadTop.Feed(sparse[i])
	}
	wantTop := dense.Top(0)
	gotTop := spreadTop.Top(0)
	for i := range gotTop {
		gotTop[i].File = back[gotTop[i].File]
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Errorf("top files with spread IDs differ from the top files as generated")
	}
}

// TestSparseIDsBoundedMemory: IDs far apart cost memory per entry, not
// per ID. A stream of 10k files 2^40 apart allocates a bounded amount per
// file, and restoring a checkpoint that names one file at 2^62 allocates
// under 1 MB.
func TestSparseIDsBoundedMemory(t *testing.T) {
	const files = 10000
	s := NewStream(Options{})
	perFile := allocPerOp(files, func() {
		for i := 1; i <= files; i++ {
			id, tm := trace.FileID(i)<<40, trace.Time(i)
			s.Feed(trace.Event{Time: tm, Kind: trace.KindCreate, OpenID: trace.OpenID(id), File: id, User: trace.UserID(i) << 18, Mode: trace.WriteOnly})
			s.Feed(trace.Event{Time: tm, Kind: trace.KindClose, OpenID: trace.OpenID(id), NewPos: 100})
		}
	})
	if perFile > 1024 {
		t.Errorf("a stream of files 2^40 apart allocated %d bytes per file", perFile)
	}

	s = NewStream(Options{})
	s.Feed(trace.Event{Time: 1, Kind: trace.KindCreate, OpenID: 1 << 62, File: 1 << 62, User: 1 << 30, Mode: trace.WriteOnly})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if alloc := allocPerOp(1, func() {
		if _, err := RestoreStream(blob, Options{}); err != nil {
			t.Error(err)
		}
	}); alloc >= 1<<20 {
		t.Errorf("RestoreStream of a file at ID 2^62 allocated %d bytes", alloc)
	}
}

// allocPerOp returns the bytes f allocates, divided by ops.
func allocPerOp(ops int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(ops)
}

// FuzzStreamIDs runs short scripts of every event kind with
// fuzzer-chosen IDs, dense, strided as trace.RemapIDs makes them, or
// huge, through a stream as given and through a second stream with the
// IDs spread in order. The two snapshots must be equal.
func FuzzStreamIDs(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 3, 0, 3, 1, 2, 5, 4, 2, 1, 2, 9, 3, 1, 0, 0, 4, 1, 0, 0})
	f.Add([]byte{1, 7, 0, 70, 80, 90, 0, 1, 70, 9, 7, 80, 90, 0, 2, 70, 40, 5, 3, 71, 8, 8, 5, 80, 0, 0})
	f.Add([]byte{2, 200, 0, 200, 201, 202, 1, 210, 211, 203, 3, 200, 1, 2, 6, 201, 0, 0, 5, 201, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := idScript(data)
		sparse, _ := spread(events)
		a, b := NewStream(Options{}), NewStream(Options{})
		for i := range events {
			a.Feed(events[i])
			b.Feed(sparse[i])
		}
		if !reflect.DeepEqual(withoutEncodedSize(b.Snapshot()), withoutEncodedSize(a.Snapshot())) {
			t.Fatalf("snapshot with spread IDs differs\nscript: %v", events)
		}
	})
}

// idScript decodes a fuzz input into an event script. The first byte
// picks how IDs are made from the script's small ones: as they are, as
// trace.RemapIDs renames source s of n (the second byte picks n and s),
// or offset to near 2^62 (2^30 for users). Then each event takes four
// bytes: its kind and three operands.
func idScript(data []byte) []trace.Event {
	if len(data) < 2 {
		return nil
	}
	mode, n := data[0]%3, int(data[1]%15)+2
	src := int(data[1]/15) % n
	var events []trace.Event
	for i := 2; i+4 <= len(data); i += 4 {
		k, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		e := trace.Event{Time: trace.Time(len(events)), Kind: trace.Kind(k%7) + trace.KindCreate}
		switch e.Kind {
		case trace.KindCreate, trace.KindOpen:
			e.OpenID, e.File, e.User = trace.OpenID(a), trace.FileID(b), trace.UserID(c%8)
			e.Mode, e.Size = trace.Mode(c%3), int64(c)*100
		case trace.KindClose:
			e.OpenID, e.NewPos = trace.OpenID(a), int64(b)*100
		case trace.KindSeek:
			e.OpenID, e.OldPos, e.NewPos = trace.OpenID(a), int64(b)*100, int64(c)*100
		case trace.KindUnlink:
			e.File = trace.FileID(a)
		case trace.KindTruncate:
			e.File, e.Size = trace.FileID(a), int64(b%2)*int64(c)*100
		case trace.KindExec:
			e.File, e.User, e.Size = trace.FileID(a), trace.UserID(b%8), int64(c)*100
		}
		switch mode {
		case 1:
			e = trace.RemapIDs(e, n, src)
		case 2:
			e.OpenID += 1 << 62
			e.File += 1 << 62
			e.User += 1 << 30
		}
		events = append(events, e)
	}
	return events
}
