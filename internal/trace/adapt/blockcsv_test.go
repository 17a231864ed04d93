package adapt_test

import (
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/trace/adapt/adapttest"
	"bsdtrace/internal/trace/sourcetest"
	"bsdtrace/internal/xfer"
)

// blockSample exercises a header line, a comment, two devices, an
// unaligned request, and a backwards timestamp in one small input.
const blockSample = `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
# hand-written sample
1000,src1,0,Read,0,8192,50
1100,src1,0,Write,8192,4096,60
1050,src1,1,Read,4096,4096,70
`

func blockFactory(input string, cfg adapt.BlockCSVConfig) adapttest.Factory {
	return func(t *testing.T) adapt.Source {
		return adapt.NewBlockCSV(strings.NewReader(input), cfg)
	}
}

func TestBlockCSVConformance(t *testing.T) {
	adapttest.Run(t, blockFactory(blockSample, adapt.BlockCSVConfig{}))
}

func TestBlockCSVEvents(t *testing.T) {
	src := adapt.NewBlockCSV(strings.NewReader(blockSample), adapt.BlockCSVConfig{})
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		// 1000,src1,0,Read,0,8192: time zero, extent grows to 8192, no seek at offset 0.
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, User: 1, Mode: trace.ReadOnly, Size: 8192},
		{Time: 0, Kind: trace.KindClose, OpenID: 1, NewPos: 8192},
		// 1100,src1,0,Write,8192,4096: opens at the old extent, extends it.
		{Time: 100, Kind: trace.KindOpen, OpenID: 2, File: 1, User: 1, Mode: trace.WriteOnly, Size: 8192},
		{Time: 100, Kind: trace.KindSeek, OpenID: 2, OldPos: 0, NewPos: 8192},
		{Time: 100, Kind: trace.KindClose, OpenID: 2, NewPos: 12288},
		// 1050,src1,1,Read,4096,4096: second device, backwards time clamped to 100.
		{Time: 100, Kind: trace.KindOpen, OpenID: 3, File: 2, User: 2, Mode: trace.ReadOnly, Size: 8192},
		{Time: 100, Kind: trace.KindSeek, OpenID: 3, OldPos: 0, NewPos: 4096},
		{Time: 100, Kind: trace.KindClose, OpenID: 3, NewPos: 8192},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%v", len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := src.Stats()
	if st.Lines != 5 || st.Records != 3 || st.Skipped != 2 || st.Events != 8 || st.ClampedTimes != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Warmup: read of blocks 0,1 on disk 0 plus block 1 on disk 1.
	if st.WarmupBlocks != 3 {
		t.Errorf("WarmupBlocks = %d, want 3", st.WarmupBlocks)
	}
}

func TestBlockCSVAlignment(t *testing.T) {
	// Misaligned offset rounds UP to the next block; size rounds up to
	// whole blocks (the asterinas replayer convention).
	const input = "0,h,0,Write,100,5000\n"
	src := adapt.NewBlockCSV(strings.NewReader(input), adapt.BlockCSVConfig{})
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// offset 100 -> 4096; size 5000 -> 8192; range [4096, 12288).
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
	if seek := got[1]; seek.Kind != trace.KindSeek || seek.NewPos != 4096 {
		t.Errorf("seek = %+v, want NewPos 4096", seek)
	}
	if cl := got[2]; cl.Kind != trace.KindClose || cl.NewPos != 12288 {
		t.Errorf("close = %+v, want NewPos 12288", cl)
	}

	// A zero-size request is dropped entirely.
	src = adapt.NewBlockCSV(strings.NewReader("0,h,0,Read,0,0\n"), adapt.BlockCSVConfig{})
	if got, err := trace.ReadSource(src); err != nil || len(got) != 0 {
		t.Errorf("zero-size request: %d events, err %v; want none", len(got), err)
	}
	if st := src.Stats(); st.Records != 0 || st.Skipped != 1 {
		t.Errorf("zero-size stats = %+v", st)
	}
}

func TestBlockCSVWarmupSkip(t *testing.T) {
	const input = `1,h,0,Read,0,4096
2,h,0,Read,0,4096
3,h,0,Write,0,4096
4,h,0,Read,0,4096
`
	src := adapt.NewBlockCSV(strings.NewReader(input), adapt.BlockCSVConfig{SkipWarmup: true})
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// Both pre-write reads are dropped (the block stays cold until the
	// write), the write and the final read survive.
	if len(got) != 4 {
		t.Fatalf("got %d events, want 4 (write pair + read pair): %v", len(got), got)
	}
	if got[0].Mode != trace.WriteOnly || got[2].Mode != trace.ReadOnly {
		t.Errorf("surviving requests = %v then %v, want write then read", got[0].Mode, got[2].Mode)
	}
	st := src.Stats()
	if st.SkippedReads != 2 {
		t.Errorf("SkippedReads = %d, want 2", st.SkippedReads)
	}
	if st.WarmupBlocks != 1 {
		t.Errorf("WarmupBlocks = %d, want 1 (same block counted once)", st.WarmupBlocks)
	}
	if st.Records != 2 {
		t.Errorf("Records = %d, want 2", st.Records)
	}
}

// TestBlockCSVTape pins the downstream contract: the re-encoded stream
// reconstructs exactly the foreign requests as transfers, with warmup
// reads fetchable (valid data) and fresh writes cold (no valid data
// beyond the old extent).
func TestBlockCSVTape(t *testing.T) {
	src := adapt.NewBlockCSV(strings.NewReader(blockSample), adapt.BlockCSVConfig{})
	tape, err := xfer.BuildTape(src)
	if err != nil {
		t.Fatal(err)
	}
	type tr struct {
		file          trace.FileID
		off, len, old int64
		write         bool
	}
	want := []tr{
		{file: 1, off: 0, len: 8192, old: 8192, write: false},
		{file: 1, off: 8192, len: 4096, old: 8192, write: true},
		{file: 2, off: 4096, len: 4096, old: 8192, write: false},
	}
	if len(tape.Transfers) != len(want) {
		t.Fatalf("%d transfers, want %d: %+v", len(tape.Transfers), len(want), tape.Transfers)
	}
	for i, w := range want {
		g := tape.Transfers[i]
		if g.File != w.file || g.Offset != w.off || g.Length != w.len || g.Write != w.write {
			t.Errorf("transfer %d = %+v, want %+v", i, g, w)
		}
		if tape.OldSizes[i] != w.old {
			t.Errorf("OldSizes[%d] = %d, want %d", i, tape.OldSizes[i], w.old)
		}
	}
}

func TestBlockCSVFiletime(t *testing.T) {
	// Real MSR timestamps are Windows filetimes (100 ns ticks); 20 ms
	// apart means 200,000 ticks.
	const input = "128166372003061629,prxy,0,Read,0,4096\n128166372003261629,prxy,0,Read,4096,4096\n"
	src := adapt.NewBlockCSV(strings.NewReader(input), adapt.BlockCSVConfig{})
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Time != 0 {
		t.Errorf("first event at t=%v, want 0", got[0].Time)
	}
	if last := got[len(got)-1].Time; last != 20 {
		t.Errorf("second request at t=%v, want 20ms", last)
	}
}

func TestBlockCSVErrors(t *testing.T) {
	cases := map[string]string{
		"truncated":       "0,h,0,Read,0\n",
		"bad-timestamp":   "zork,h,0,Read,0,4096\n",
		"negative-offset": "0,h,0,Read,-4096,4096\n",
		"bad-type":        "0,h,0,Frobnicate,0,4096\n",
		"negative-size":   "0,h,0,Read,0,-1\n",
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			input := "1,h,0,Read,0,4096\n" + bad
			sourcetest.RunSticky(t, func(t *testing.T) trace.Source {
				return adapt.NewBlockCSV(strings.NewReader(input), adapt.BlockCSVConfig{})
			}, 2) // the good line's open+close arrive before the error
			src := adapt.NewBlockCSV(strings.NewReader(input), adapt.BlockCSVConfig{})
			_, err := trace.ReadSource(src)
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("error %v does not name line 2", err)
			}
		})
	}
}

func TestParseBlockCSVRoundTrip(t *testing.T) {
	lines := []string{
		"128166372003061629,usr,6,Write,2031616,4096,527",
		"0,h,0,Read,100,5000",
		"7,box,12,Write,0,512,3",
	}
	for _, line := range lines {
		rec, err := adapt.ParseBlockCSVLine(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		again, err := adapt.ParseBlockCSVLine(rec.String())
		if err != nil || again != rec {
			t.Fatalf("%q -> %+v -> %q -> %+v (err %v)", line, rec, rec.String(), again, err)
		}
	}
}
