package cachesim_test

// The replay golden: every replacement policy, every write policy and the
// multi-tier replays, pinned end to end on one generated trace. Each
// result field (counters, residency CDF, residency-over fraction) is
// compared exactly, so any engine change that alters a single replay
// outcome fails here. Regenerate with BSDTRACE_REGEN_FIXTURES=1 only for
// an intentional behaviour change, and review the diff.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

const replayGolden = "testdata/replay.golden.json"

// replayGoldenTape is the A5 trace the golden is computed over.
func replayGoldenTape(t *testing.T) *xfer.Tape {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: 2 * trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// goldenSection is one named group of results, one JSON line each.
type goldenSection struct {
	name string
	rows []any
}

// twoLevelRow is the diskless-workstation network's traffic: the client
// tier's accesses, read misses and write-throughs, the blocks crossing
// the network, and the server's disk I/O.
type twoLevelRow struct {
	ClientAccesses, ClientReadMisses, WriteForwards, NetworkBlocks int64
	ServerDiskReads, ServerDiskWrites                              int64
}

func flatten[T any](grid [][]T) []any {
	var out []any
	for _, row := range grid {
		for _, r := range row {
			out = append(out, r)
		}
	}
	return out
}

// replayGoldenSections runs every pinned replay over the tape.
func replayGoldenSections(t *testing.T, tape *xfer.Tape) []goldenSection {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sizes := cachesim.PaperCacheSizes()
	var out []goldenSection

	zoo, err := cachesim.ZooSweepTape(tape, 4096, sizes, 1)
	must(err)
	out = append(out, goldenSection{"zoo", flatten(zoo)})

	zb, err := cachesim.ZooBlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), 2<<20, 1)
	must(err)
	out = append(out, goldenSection{"zoo-block", flatten(zb)})

	zp, err := cachesim.ZooPagingSweepTape(tape, 4096, sizes, 1)
	must(err)
	out = append(out, goldenSection{"zoo-paging", flatten(zp)})

	intervals := []trace.Time{
		1 * trace.Second, 5 * trace.Second, 30 * trace.Second,
		trace.Minute, 5 * trace.Minute, 15 * trace.Minute, trace.Hour,
	}
	fl, err := cachesim.FlushIntervalSweepTape(tape, 4096, 2<<20, intervals)
	must(err)
	out = append(out, goldenSection{"flush", flatten([][]*cachesim.Result{fl})})

	// Two machines replaying the same trace share one server; every
	// server write policy.
	var two []any
	for _, p := range cachesim.PaperPolicies() {
		r, err := cachesim.HierarchySimulateTapes([]*xfer.Tape{tape, tape}, cachesim.HierarchyConfig{
			BlockSize: 4096,
			Tiers: []cachesim.Tier{
				{Name: "client", Size: cachesim.UnixCacheSize, Write: cachesim.WriteThrough},
				{Name: "server", Size: 4 << 20, Write: p.Write, FlushInterval: p.Interval},
				{Name: "disk"},
			},
		})
		must(err)
		two = append(two, twoLevelRow{
			r.ClientAccesses, r.Tiers[0].ReadMisses, r.Tiers[0].WriteBacks, r.NetworkBlocks(),
			r.DiskReads(), r.DiskWrites(),
		})
	}
	out = append(out, goldenSection{"two-level", two})

	// The three-tier stack fscachesim -sweep tiers runs.
	h, err := cachesim.HierarchySimulateTapes([]*xfer.Tape{tape}, cachesim.HierarchyConfig{
		BlockSize: 4096,
		Tiers: []cachesim.Tier{
			{Name: "ram", Size: cachesim.UnixCacheSize, Replacement: cachesim.LRU,
				Write: cachesim.WriteThrough},
			{Name: "flash", Size: 4 << 20, Replacement: cachesim.ARC, Seed: 1,
				Write:       cachesim.DelayedWrite,
				ReadLatency: trace.Millisecond, WriteLatency: 2 * trace.Millisecond,
				EnduranceWrites: 100_000},
			{Name: "disk", ReadLatency: 10 * trace.Millisecond,
				WriteLatency: 10 * trace.Millisecond},
		},
	})
	must(err)
	out = append(out, goldenSection{"tiers", []any{h}})
	return out
}

// encodeGolden renders the sections as JSON, one result per line so a
// regenerated golden diffs readably.
func encodeGolden(t *testing.T, sections []goldenSection) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, s := range sections {
		name, _ := json.Marshal(s.name)
		buf.Write(name)
		buf.WriteString(": [\n")
		for j, r := range s.rows {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if j < len(s.rows)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]")
		if i < len(sections)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

// TestReplayGolden holds all nine policies, the flush-interval sweep and
// the two-level and hierarchy replays to the committed golden.
func TestReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 2h trace into ~180 configurations")
	}
	got := encodeGolden(t, replayGoldenSections(t, replayGoldenTape(t)))
	if os.Getenv("BSDTRACE_REGEN_FIXTURES") == "1" {
		if err := os.MkdirAll(filepath.Dir(replayGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(replayGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with BSDTRACE_REGEN_FIXTURES=1)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("replay drifted from %s at line %d:\n got %s\nwant %s", replayGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("replay drifted from %s: %d lines, want %d", replayGolden, len(gl), len(wl))
}
