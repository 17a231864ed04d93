package analyzer

import (
	"bytes"
	"math"
	"testing"

	"bsdtrace/internal/trace"
)

// ev builders keep the test traces readable.
func open(t trace.Time, id trace.OpenID, f trace.FileID, u trace.UserID, m trace.Mode, size int64) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindOpen, OpenID: id, File: f, User: u, Mode: m, Size: size}
}
func create(t trace.Time, id trace.OpenID, f trace.FileID, u trace.UserID) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindCreate, OpenID: id, File: f, User: u, Mode: trace.WriteOnly}
}
func closeEv(t trace.Time, id trace.OpenID, pos int64) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindClose, OpenID: id, NewPos: pos}
}
func seek(t trace.Time, id trace.OpenID, oldPos, newPos int64) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindSeek, OpenID: id, OldPos: oldPos, NewPos: newPos}
}
func unlink(t trace.Time, f trace.FileID) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindUnlink, File: f}
}

// writtenSize is the size of the trace a version-1 writer makes of
// events, skipping the events it refuses.
func writtenSize(t *testing.T, events []trace.Event) int64 {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil && e.Kind.Valid() {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// TestEncodedSizeMatchesWriter: Overall.EncodedSize is exactly the
// bytes trace.NewWriter and Flush produce — on a generated trace, on
// the empty stream (the bare header), around events of invalid kinds
// (refused, and no delta base for the next record), in a mid-stream
// Snapshot, and on a stream restored from a checkpoint.
func TestEncodedSizeMatchesWriter(t *testing.T) {
	events := snapshotTrace(t)
	invalid := trace.Event{Time: events[1].Time + trace.Hour, Kind: trace.Kind(200)}
	withInvalid := []trace.Event{events[0], invalid, events[1], events[2]}
	for _, c := range []struct {
		name   string
		events []trace.Event
	}{
		{"A5 trace", events},
		{"empty", nil},
		{"one invalid kind", []trace.Event{invalid}},
		{"invalid kind mid-stream", withInvalid},
	} {
		got := Analyze(c.events, Options{}).Overall.EncodedSize
		if want := writtenSize(t, c.events); got != want {
			t.Errorf("%s: EncodedSize = %d, writer wrote %d", c.name, got, want)
		}
	}
	if got := Analyze(nil, Options{}).Overall.EncodedSize; got != trace.HeaderSize {
		t.Errorf("empty stream: EncodedSize = %d, want the %d-byte header", got, trace.HeaderSize)
	}

	k := len(events) / 2
	s := NewStream(Options{})
	for _, e := range events[:k] {
		s.Feed(e)
	}
	if got, want := s.Snapshot().Overall.EncodedSize, writtenSize(t, events[:k]); got != want {
		t.Errorf("Snapshot after %d events: EncodedSize = %d, writer wrote %d", k, got, want)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStream(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[k:] {
		restored.Feed(e)
	}
	if got, want := restored.Finish().Overall.EncodedSize, writtenSize(t, events); got != want {
		t.Errorf("restored at %d: EncodedSize = %d, writer wrote %d", k, got, want)
	}
}

func TestOverallCountsAndBytes(t *testing.T) {
	events := []trace.Event{
		create(0, 1, 10, 1),
		closeEv(1*trace.Second, 1, 4096),
		open(2*trace.Second, 2, 10, 1, trace.ReadOnly, 4096),
		closeEv(3*trace.Second, 2, 4096),
		unlink(4*trace.Second, 10),
	}
	a := Analyze(events, Options{})
	if a.Overall.Counts.Total != 5 {
		t.Errorf("Total = %d", a.Overall.Counts.Total)
	}
	if a.Overall.BytesWritten != 4096 || a.Overall.BytesRead != 4096 {
		t.Errorf("bytes = %d written, %d read", a.Overall.BytesWritten, a.Overall.BytesRead)
	}
	if a.Overall.BytesTransferred != 8192 {
		t.Errorf("BytesTransferred = %d", a.Overall.BytesTransferred)
	}
	if a.Overall.Duration != 4*trace.Second {
		t.Errorf("Duration = %v", a.Overall.Duration)
	}
	if a.Overall.EncodedSize <= 0 {
		t.Errorf("EncodedSize = %d", a.Overall.EncodedSize)
	}
	if a.Overall.UnclosedOpens != 0 {
		t.Errorf("UnclosedOpens = %d", a.Overall.UnclosedOpens)
	}
}

func TestSequentialityClasses(t *testing.T) {
	events := []trace.Event{
		// Whole-file read.
		open(0, 1, 1, 1, trace.ReadOnly, 1000),
		closeEv(100, 1, 1000),
		// Partial sequential read (not whole-file).
		open(200, 2, 1, 1, trace.ReadOnly, 1000),
		closeEv(300, 2, 500),
		// Non-sequential read: two runs.
		open(400, 3, 1, 1, trace.ReadOnly, 1000),
		seek(450, 3, 200, 800),
		closeEv(500, 3, 900),
		// Whole-file write via create.
		create(600, 4, 2, 1),
		closeEv(700, 4, 2000),
		// Read-write append (sequential, not whole-file).
		open(800, 5, 2, 1, trace.ReadWrite, 2000),
		seek(850, 5, 0, 2000),
		closeEv(900, 5, 2500),
	}
	a := Analyze(events, Options{})
	s := &a.Sequentiality
	if s.Accesses[ClassReadOnly] != 3 || s.Accesses[ClassWriteOnly] != 1 || s.Accesses[ClassReadWrite] != 1 {
		t.Fatalf("accesses = %v", s.Accesses)
	}
	if s.WholeFile[ClassReadOnly] != 1 || s.WholeFile[ClassWriteOnly] != 1 || s.WholeFile[ClassReadWrite] != 0 {
		t.Errorf("whole-file = %v", s.WholeFile)
	}
	if s.Sequential[ClassReadOnly] != 2 || s.Sequential[ClassWriteOnly] != 1 || s.Sequential[ClassReadWrite] != 1 {
		t.Errorf("sequential = %v", s.Sequential)
	}
	if got := s.WholeFileFraction(ClassReadOnly); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("WholeFileFraction(ro) = %v", got)
	}
	if got := s.SequentialFraction(ClassReadOnly); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("SequentialFraction(ro) = %v", got)
	}
	wantBytes := int64(1000 + 500 + (200 + 100) + 2000 + 500)
	if s.BytesTotal != wantBytes {
		t.Errorf("BytesTotal = %d, want %d", s.BytesTotal, wantBytes)
	}
	if s.BytesWholeFile != 3000 {
		t.Errorf("BytesWholeFile = %d, want 3000", s.BytesWholeFile)
	}
}

func TestActivityThroughput(t *testing.T) {
	// One user transfers 1000 bytes in the first 10-second interval and
	// is silent for the rest of a 40-second trace; a second user is
	// active (opens a file) but transfers nothing.
	events := []trace.Event{
		open(0, 1, 1, 7, trace.ReadOnly, 1000),
		closeEv(1*trace.Second, 1, 1000),
		open(2*trace.Second, 2, 2, 8, trace.ReadOnly, 500),
		closeEv(11*trace.Second, 2, 0),
		unlink(39*trace.Second, 1),
	}
	a := Analyze(events, Options{})
	if a.Activity.TotalUsers != 2 {
		t.Errorf("TotalUsers = %d", a.Activity.TotalUsers)
	}
	// Whole-trace throughput: 1000 bytes over 39 seconds.
	if got, want := a.Activity.AvgThroughput, 1000.0/39; math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgThroughput = %v, want %v", got, want)
	}
	sh := a.Activity.Short
	if sh.Interval != 10*trace.Second {
		t.Errorf("short interval = %v", sh.Interval)
	}
	// Interval 0 has users 7 and 8 active; interval 1 has user 8
	// (close at 11 s); intervals 2 and 3 have the unlink only (no user).
	if sh.MaxActiveUsers != 2 {
		t.Errorf("MaxActiveUsers = %d", sh.MaxActiveUsers)
	}
	// Per-user throughput samples: user7@i0 = 100 B/s, user8@i0 = 0,
	// user8@i1 = 0 -> mean 33.3.
	if got := sh.PerUserThroughput.N(); got != 3 {
		t.Errorf("per-user samples = %d, want 3", got)
	}
	if got, want := sh.PerUserThroughput.Mean(), 100.0/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("per-user mean = %v, want %v", got, want)
	}
	// Long intervals: everything lands in one 10-minute bucket.
	lg := a.Activity.Long
	if lg.MaxActiveUsers != 2 || lg.ActiveUsers.N() != 1 {
		t.Errorf("long row: max=%d n=%d", lg.MaxActiveUsers, lg.ActiveUsers.N())
	}
}

func TestLifetimes(t *testing.T) {
	events := []trace.Event{
		// File 1: created, written, deleted after 60 s.
		create(0, 1, 1, 1),
		closeEv(1*trace.Second, 1, 1000),
		unlink(60*trace.Second, 1),
		// File 2: created, written, overwritten by re-create after 180 s.
		create(10*trace.Second, 2, 2, 1),
		closeEv(11*trace.Second, 2, 4000),
		create(190*trace.Second, 3, 2, 1),
		closeEv(191*trace.Second, 3, 100),
		// File 3: created and still alive at end of trace (censored).
		create(20*trace.Second, 4, 3, 1),
		closeEv(21*trace.Second, 4, 2000),
		// Pad the trace end out.
		unlink(400*trace.Second, 99),
	}
	a := Analyze(events, Options{})
	lt := a.Lifetimes
	// New files: 1, 2, 2 (re-created), 3 -> 4 births. Deaths: file1
	// unlink, file2 overwrite -> 2.
	if lt.NewFiles != 4 || lt.DeadFiles != 2 {
		t.Fatalf("NewFiles=%d DeadFiles=%d", lt.NewFiles, lt.DeadFiles)
	}
	// By files: 2 deaths (60 s, 180 s) + 2 survivors censored. Querying
	// at the death points (bucket boundaries) avoids the CDF's linear
	// interpolation between sparse points: at 60 s = 1/4; at 180 s = 2/4.
	if got := lt.ByFiles.FractionAtOrBelow(60); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("ByFiles(60s) = %v, want 0.25", got)
	}
	if got := lt.ByFiles.FractionAtOrBelow(180); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ByFiles(180s) = %v, want 0.5", got)
	}
	// By bytes: dead bytes 1000 (60 s) + 4000 (180 s); survivors 2000 +
	// 100. Fraction at 60 s = 1000/7100.
	if got, want := lt.ByBytes.FractionAtOrBelow(60), 1000.0/7100; math.Abs(got-want) > 1e-9 {
		t.Errorf("ByBytes(60s) = %v, want %v", got, want)
	}
}

func TestTruncateToZeroBirthsAndKills(t *testing.T) {
	events := []trace.Event{
		create(0, 1, 1, 1),
		closeEv(1*trace.Second, 1, 1000),
		{Time: 30 * trace.Second, Kind: trace.KindTruncate, File: 1, Size: 0},
		// Write to the truncated file, then delete it.
		open(31*trace.Second, 2, 1, 1, trace.ReadWrite, 0),
		closeEv(32*trace.Second, 2, 500),
		unlink(90*trace.Second, 1),
	}
	a := Analyze(events, Options{})
	if a.Lifetimes.NewFiles != 2 || a.Lifetimes.DeadFiles != 2 {
		t.Fatalf("NewFiles=%d DeadFiles=%d", a.Lifetimes.NewFiles, a.Lifetimes.DeadFiles)
	}
	// Deaths at 30 s (truncate) and 60 s (unlink - truncate birth).
	if got := a.Lifetimes.ByFiles.FractionAtOrBelow(30); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ByFiles(30s) = %v, want 0.5", got)
	}
	if got := a.Lifetimes.ByFiles.FractionAtOrBelow(60); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("ByFiles(60s) = %v, want 1", got)
	}
}

func TestOpenTimesCDF(t *testing.T) {
	events := []trace.Event{
		open(0, 1, 1, 1, trace.ReadOnly, 100),
		closeEv(100*trace.Millisecond, 1, 100), // 0.1 s
		open(1*trace.Second, 2, 1, 1, trace.ReadOnly, 100),
		closeEv(21*trace.Second, 2, 100), // 20 s
	}
	a := Analyze(events, Options{})
	if got := a.OpenTimes.FractionAtOrBelow(0.5); math.Abs(got-0.5) > 0.05 {
		t.Errorf("OpenTimes(0.5s) = %v, want ~0.5", got)
	}
	if got := a.OpenTimes.FractionAtOrBelow(100); got != 1 {
		t.Errorf("OpenTimes(100s) = %v, want 1", got)
	}
}

func TestRunLengthCDFs(t *testing.T) {
	// Nine short runs of 100 bytes and one long run of 100,000 bytes:
	// 90% of runs are short, but ~99% of bytes are in the long run.
	var events []trace.Event
	var id trace.OpenID = 1
	tm := trace.Time(0)
	for i := 0; i < 9; i++ {
		events = append(events,
			open(tm, id, trace.FileID(i+1), 1, trace.ReadOnly, 100),
			closeEv(tm+10, id, 100))
		id++
		tm += 100
	}
	events = append(events,
		open(tm, id, 99, 1, trace.ReadOnly, 100000),
		closeEv(tm+10, id, 100000))
	a := Analyze(events, Options{})
	if got := a.RunLengthsByRuns.FractionAtOrBelow(200); math.Abs(got-0.9) > 0.01 {
		t.Errorf("by runs at 200B = %v, want 0.9", got)
	}
	if got := a.RunLengthsByBytes.FractionAtOrBelow(200); got > 0.02 {
		t.Errorf("by bytes at 200B = %v, want ~0.009", got)
	}
}

func TestFileSizeCDFs(t *testing.T) {
	events := []trace.Event{
		// A small file accessed fully and a large file accessed barely.
		open(0, 1, 1, 1, trace.ReadOnly, 1000),
		closeEv(10, 1, 1000),
		open(100, 2, 2, 1, trace.ReadOnly, 1<<20),
		seek(110, 2, 0, 1<<19),
		closeEv(120, 2, 1<<19+100),
	}
	a := Analyze(events, Options{})
	// Half the accesses are to files <= 10 KB.
	if got := a.FileSizesByFiles.FractionAtOrBelow(10000); math.Abs(got-0.5) > 0.01 {
		t.Errorf("by files at 10KB = %v, want 0.5", got)
	}
	// Bytes: 1000 from the small file, 100 from the big one.
	if got, want := a.FileSizesByBytes.FractionAtOrBelow(10000), 1000.0/1100; math.Abs(got-want) > 0.01 {
		t.Errorf("by bytes at 10KB = %v, want %v", got, want)
	}
}

func TestEventIntervals(t *testing.T) {
	events := []trace.Event{
		open(0, 1, 1, 1, trace.ReadOnly, 1000),
		closeEv(100*trace.Millisecond, 1, 1000), // gap 0.1 s
		open(1*trace.Second, 2, 1, 1, trace.ReadOnly, 1000),
		closeEv(41*trace.Second, 2, 1000), // gap 40 s
	}
	a := Analyze(events, Options{})
	if got := a.EventIntervals.FractionAtOrBelow(0.5); math.Abs(got-0.5) > 0.05 {
		t.Errorf("gaps at 0.5s = %v, want 0.5", got)
	}
}

func TestAnalyzeReader(t *testing.T) {
	events := []trace.Event{
		open(0, 1, 1, 1, trace.ReadOnly, 100),
		closeEv(10, 1, 100),
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSource(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall.Counts.Total != 2 || a.Overall.BytesRead != 100 {
		t.Errorf("AnalyzeSource over a Reader: result wrong: %+v", a.Overall)
	}
}

func TestEmptyTrace(t *testing.T) {
	a := Analyze(nil, Options{})
	if a.Overall.Counts.Total != 0 || a.Activity.AvgThroughput != 0 {
		t.Errorf("empty trace not neutral: %+v", a.Overall)
	}
	if a.OpenTimes != nil {
		t.Errorf("empty trace produced CDFs")
	}
}

func TestUnclosedOpenCounted(t *testing.T) {
	events := []trace.Event{
		open(0, 1, 1, 1, trace.ReadOnly, 100),
	}
	a := Analyze(events, Options{})
	if a.Overall.UnclosedOpens != 1 {
		t.Errorf("UnclosedOpens = %d", a.Overall.UnclosedOpens)
	}
}

func TestSharing(t *testing.T) {
	events := []trace.Event{
		// File 1: two users read it -> shared.
		open(0, 1, 1, 10, trace.ReadOnly, 100),
		closeEv(10, 1, 100),
		open(20, 2, 1, 11, trace.ReadOnly, 100),
		closeEv(30, 2, 100),
		// File 2: one user, twice -> not shared.
		open(40, 3, 2, 10, trace.ReadOnly, 100),
		closeEv(50, 3, 100),
		open(60, 4, 2, 10, trace.ReadOnly, 100),
		closeEv(70, 4, 100),
		// File 3: exec by a second user makes it shared.
		open(80, 5, 3, 10, trace.ReadOnly, 100),
		closeEv(90, 5, 100),
		{Time: 100, Kind: trace.KindExec, File: 3, User: 12, Size: 100},
	}
	a := Analyze(events, Options{})
	sh := a.Sharing
	if sh.FilesAccessed != 3 || sh.FilesShared != 2 {
		t.Fatalf("sharing = %+v", sh)
	}
	if sh.AccessesTotal != 6 || sh.AccessesToShared != 4 {
		t.Errorf("accesses = %+v", sh)
	}
	if got := sh.SharedFileFraction(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("SharedFileFraction = %v", got)
	}
	if got := sh.SharedAccessFraction(); math.Abs(got-4.0/6) > 1e-9 {
		t.Errorf("SharedAccessFraction = %v", got)
	}
	var empty Sharing
	if empty.SharedFileFraction() != 0 || empty.SharedAccessFraction() != 0 {
		t.Errorf("empty sharing fractions should be 0")
	}
}

func TestTopFiles(t *testing.T) {
	events := []trace.Event{
		// File 1: three opens by two users, 300 bytes.
		open(0, 1, 1, 10, trace.ReadOnly, 100),
		closeEv(10, 1, 100),
		open(20, 2, 1, 11, trace.ReadOnly, 100),
		closeEv(30, 2, 100),
		open(40, 3, 1, 10, trace.ReadOnly, 100),
		closeEv(50, 3, 100),
		// File 2: one exec.
		{Time: 60, Kind: trace.KindExec, File: 2, User: 10, Size: 5000},
		// File 3: one open, more bytes than file 2.
		open(70, 4, 3, 10, trace.ReadOnly, 900),
		closeEv(80, 4, 900),
	}
	topFiles := func(n int) []FileStat {
		a := NewTopAccum()
		for _, e := range events {
			a.Feed(e)
		}
		return a.Top(n)
	}
	top := topFiles(2)
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].File != 1 || top[0].Opens != 3 || top[0].Bytes != 300 || top[0].Users != 2 {
		t.Errorf("top[0] = %+v", top[0])
	}
	// Tie between files 2 and 3 on accesses; file 3 wins on bytes.
	if top[1].File != 3 || top[1].Bytes != 900 {
		t.Errorf("top[1] = %+v", top[1])
	}
	// Unlimited.
	all := topFiles(0)
	if len(all) != 3 {
		t.Errorf("all = %d files", len(all))
	}
	if all[2].File != 2 || all[2].Execs != 1 || all[2].LastSize != 5000 {
		t.Errorf("exec file stat = %+v", all[2])
	}
}
