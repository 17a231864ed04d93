package cachesim

import (
	"reflect"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// edgeTrace is a small hand-built trace for the one-pass LRU engine.
// With 4-kbyte blocks and caches of 1, 2 and 4 blocks (bands of 1, 1 and
// 2 slots) its replay reaches the cases a random trace may miss; the
// comments give the bands after each step, without paging.
func edgeTrace() []trace.Event {
	const blk = 4096
	b := newTB()
	b.read(1, blk)  // [1] [] []
	b.write(2, blk) // [2*] [1] []
	b.unlink(2)     // a dirty purge leaves a hole in band 0: [] [1] []
	b.read(1, blk)  // a hit from band 1 fills the hole: [1] [] []
	b.write(3, blk) // [3*] [1] []
	b.write(4, blk) // [4*] [3*] [1]
	b.read(5, blk)  // [5] [4*] [3* 1]
	b.write(6, blk) // [6*] [5] [4* 3*], and 1 leaves every cache
	b.unlink(5)     // a clean purge leaves a hole in band 1: [6*] [] [4* 3*]
	b.read(7, blk)  // the hole stops the cascade: [7] [6*] [4* 3*]
	// A 30-second flush scan falls due inside an idle gap and writes a
	// different count in each cache (0, 1 and 3 blocks).
	b.now += 45 * trace.Second
	b.read(7, blk)
	b.overwrite(8, blk, blk)   // a full-block overwrite needs no fetch: [8*] [7] [6 4]
	b.overwrite(9, 2*blk, 100) // a partial one fetches: [9*] [8*] [7 6]
	b.exec(10, 3*blk)          // page-in reads, under paging only
	b.write(3, blk)            // [3*] [9*] [8* 7]
	b.read(11, blk)            // [11] [3*] [9* 8*]
	b.read(12, 2*blk)          // [12.1] [12.0] [11 3*]
	b.unlink(3)                // 3 dies dirty in the largest cache only
	b.truncate(10, blk)
	b.write(13, 3*blk)
	b.now += 10 * trace.Minute
	b.read(8, blk)
	b.write(14, blk)
	return b.events
}

// sweepWant replays a sweep's grid through MultiSimulate, the
// per-configuration oracle.
func sweepWant(t *testing.T, tape *xfer.Tape, rows, cols int, cell func(i, j int) Config) [][]*Result {
	t.Helper()
	want, err := grid(tape, rows, cols, MultiSimulate, cell)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func checkSweep(t *testing.T, name string, got, want [][]*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d results, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !reflect.DeepEqual(got[i][j], want[i][j]) {
				t.Errorf("%s [%d][%d] (%+v):\nengine     %+v\nper-config %+v", name, i, j, want[i][j].Config, got[i][j], want[i][j])
			}
		}
	}
}

// TestLRUSweepEdgeCases holds every sweep on the one-pass engine to
// MultiSimulate over edgeTrace, with unsorted and duplicate cache sizes,
// block sizes, write policies and intervals, a cache smaller than one
// block, and empty lists. A block-size sweep with block sizes but no
// cache sizes has no access count to report, and is refused.
func TestLRUSweepEdgeCases(t *testing.T) {
	tape := mustTape(t, edgeTrace())
	const blk = 4096
	sizes := []int64{4 * blk, 1000, 2 * blk, blk, 4 * blk}
	policies := []PolicySpec{
		{Write: FlushBack, Interval: 30 * trace.Second},
		{Write: WriteThrough},
		{Write: DelayedWrite},
		{Write: FlushBack, Interval: 5 * trace.Minute},
		{Write: FlushBack, Interval: 30 * trace.Second},
	}
	for _, sz := range [][]int64{sizes, nil} {
		for _, pols := range [][]PolicySpec{policies, nil} {
			got, err := PolicySweepTape(tape, blk, sz, pols)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, "policy", got, sweepWant(t, tape, len(sz), len(pols), func(i, j int) Config {
				return Config{BlockSize: blk, CacheSize: sz[i], Write: pols[j].Write, FlushInterval: pols[j].Interval}
			}))
		}

		paging, err := PagingSweepTape(tape, blk, sz)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]*Result
		for _, pair := range paging {
			got = append(got, pair[:])
		}
		checkSweep(t, "paging", got, sweepWant(t, tape, len(sz), 2, func(i, j int) Config {
			return Config{BlockSize: blk, CacheSize: sz[i], Write: DelayedWrite, SimulatePaging: j == 1}
		}))
	}
	for _, bss := range [][]int64{{blk, 1024, blk, 3000}, nil} {
		block, err := BlockSizeSweepTape(tape, bss, sizes)
		if err != nil {
			t.Fatal(err)
		}
		checkSweep(t, "block", block.Results, sweepWant(t, tape, len(bss), len(sizes), func(i, j int) Config {
			return Config{BlockSize: bss[i], CacheSize: sizes[j], Write: DelayedWrite}
		}))
	}
	if _, err := BlockSizeSweepTape(tape, []int64{blk, 1024}, nil); err == nil || !strings.Contains(err.Error(), "cache-size list is empty") {
		t.Errorf("block sweep with no cache sizes: error %v, want one naming the empty cache-size list", err)
	}

	for _, ivs := range [][]trace.Time{{5 * trace.Second, trace.Second, 5 * trace.Second, trace.Hour}, nil} {
		for _, cs := range []int64{1000, 2 * blk} {
			flush, err := FlushIntervalSweepTape(tape, blk, cs, ivs)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, "flush", [][]*Result{flush}, sweepWant(t, tape, 1, len(ivs), func(_, j int) Config {
				return Config{BlockSize: blk, CacheSize: cs, Write: FlushBack, FlushInterval: ivs[j]}
			}))
		}
	}
}

// TestLRUSweepRejectsLikeMultiSimulate: an invalid configuration fails
// the engine with MultiSimulate's error before any work starts, so a nil
// tape is never touched.
func TestLRUSweepRejectsLikeMultiSimulate(t *testing.T) {
	ok := Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite}
	for _, bad := range []Config{
		{BlockSize: 0, CacheSize: 1 << 20, Write: DelayedWrite},
		{BlockSize: 4096, CacheSize: 1 << 20, Write: FlushBack},
		{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite, FlushInterval: 30 * trace.Second},
	} {
		cfgs := []Config{ok, bad}
		_, want := MultiSimulate(nil, cfgs)
		_, got := lruSweep(nil, cfgs)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%+v: engine error %v, MultiSimulate error %v", bad, got, want)
		}
	}
	if _, err := PolicySweepTape(nil, 4096, []int64{1 << 20}, []PolicySpec{{Write: DelayedWrite, Interval: trace.Second}}); err == nil {
		t.Error("an interval on delayed-write accepted")
	}
}
