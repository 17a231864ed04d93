package xfer_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// withoutAdvances drops a tape's clock advances, the only ops in which a
// merged tape may differ from the tape of the merged events.
func withoutAdvances(ops []xfer.Op) []xfer.Op {
	return slices.DeleteFunc(slices.Clone(ops), func(op xfer.Op) bool { return op.Kind == xfer.OpAdvance })
}

// checkMergeTapes holds MergeTapes over the machines' tapes to the tape
// BuildTape makes from the k-way merge of their events: the same ops
// apart from advances, the same transfers, OldSizes and Unclosed, and
// the same cache replay results at three sizes under every Table VI
// write policy. The flush-back policies are the ones that read the
// clock between ops.
func checkMergeTapes(t *testing.T, name string, traces [][]trace.Event) {
	t.Helper()
	tapes := make([]*xfer.Tape, len(traces))
	srcs := make([]trace.Source, len(traces))
	for m, events := range traces {
		tape, err := xfer.NewTape(events)
		if err != nil {
			t.Fatalf("%s: machine %d: %v", name, m, err)
		}
		tapes[m] = tape
		srcs[m] = trace.NewSliceSource(events)
	}
	want, err := xfer.BuildTape(trace.NewMergeSource(srcs...))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := xfer.MergeTapes(tapes)

	if g, w := withoutAdvances(got.Ops), withoutAdvances(want.Ops); !slices.Equal(g, w) {
		t.Errorf("%s: %d ops besides advances, want %d, or they differ", name, len(g), len(w))
	}
	if !slices.Equal(got.Transfers, want.Transfers) {
		t.Errorf("%s: %d transfers, want %d, or they differ", name, len(got.Transfers), len(want.Transfers))
	}
	if !slices.Equal(got.OldSizes, want.OldSizes) {
		t.Errorf("%s: OldSizes differ", name)
	}
	if got.Unclosed != want.Unclosed {
		t.Errorf("%s: Unclosed %d, want %d", name, got.Unclosed, want.Unclosed)
	}
	for i := 1; i < len(got.Ops); i++ {
		if got.Ops[i].Time < got.Ops[i-1].Time {
			t.Fatalf("%s: op %d goes back in time", name, i)
		}
		if got.Ops[i].Kind == xfer.OpAdvance && got.Ops[i-1].Kind == xfer.OpAdvance {
			t.Fatalf("%s: ops %d and %d are adjacent advances", name, i-1, i)
		}
	}

	var cfgs []cachesim.Config
	for _, size := range []int64{2 << 20, 6 << 20, 16 << 20} {
		for _, p := range cachesim.PaperPolicies() {
			cfgs = append(cfgs, cachesim.Config{BlockSize: 4096, CacheSize: size, Write: p.Write, FlushInterval: p.Interval})
		}
	}
	gotRes, err := cachesim.MultiSimulate(got, cfgs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantRes, err := cachesim.MultiSimulate(want, cfgs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
			t.Errorf("%s: %s: merged tape replays to %+v, want %+v", name, cfgs[i].Label(), *gotRes[i], *wantRes[i])
		}
	}
}

// TestMergeTapesEqualsMergedEvents: merging the machine tapes gives the
// server tape that scanning the merged machine traces gives.
func TestMergeTapesEqualsMergedEvents(t *testing.T) {
	for _, seed := range []int64{1, 11} {
		var traces [][]trace.Event
		for _, profile := range []string{"A5", "E3", "C4"} {
			res, err := workload.Generate(workload.Config{Profile: profile, Seed: seed, Duration: 2 * trace.Hour})
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, res.Events)
		}
		checkMergeTapes(t, fmt.Sprintf("seed %d", seed), traces)
	}
}

// TestMergeTapesEqualTimes: machines whose events share timestamps merge
// in machine order, no-op events fold into advances differently on each
// side, and every machine's IDs collide before the remapping.
func TestMergeTapesEqualTimes(t *testing.T) {
	machine := func(shift trace.Time) []trace.Event {
		events := []trace.Event{
			{Time: 10, Kind: trace.KindCreate, OpenID: 1, File: 1, User: 1, Mode: trace.WriteOnly},
			{Time: 20, Kind: trace.KindClose, OpenID: 1, NewPos: 9000},
			{Time: 20, Kind: trace.KindOpen, OpenID: 2, File: 1, User: 2, Mode: trace.ReadWrite, Size: 9000},
			{Time: 25, Kind: trace.KindSeek, OpenID: 2, OldPos: 0, NewPos: 0},
			{Time: 30, Kind: trace.KindSeek, OpenID: 2, OldPos: 4096, NewPos: 8192},
			{Time: 30, Kind: trace.KindClose, OpenID: 2, NewPos: 12000},
			{Time: 30, Kind: trace.KindExec, File: 2, User: 1, Size: 5000},
			{Time: 40, Kind: trace.KindOpen, OpenID: 3, File: 2, User: 1, Mode: trace.ReadOnly, Size: 5000},
			{Time: 40, Kind: trace.KindTruncate, File: 1, Size: 100},
			{Time: 50, Kind: trace.KindOpen, OpenID: 4, File: 3, User: 3, Mode: trace.ReadOnly, Size: 700},
			{Time: 50, Kind: trace.KindUnlink, File: 1},
			{Time: 60, Kind: trace.KindClose, OpenID: 4, NewPos: 700},
		}
		for i := range events {
			events[i].Time = (events[i].Time + shift) * trace.Millisecond
		}
		return events
	}
	// The first two machines tie at every timestamp. The third's close
	// at 22 ms lands inside the others' folded open and seek (20 and
	// 25 ms), so the tape of the merged events has an advance there that
	// the merged tapes lack.
	checkMergeTapes(t, "equal times", [][]trace.Event{machine(0), machine(0), machine(2)})
}
