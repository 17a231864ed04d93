package cachesim

import (
	"math/rand"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// stackDistancesScan is the differential oracle for StackDistancesTape:
// Mattson's one-pass LRU stack analysis with the stack kept as a plain
// slice and scanned linearly (O(references x distinct blocks)), where
// the production path finds each reuse distance with a Fenwick tree. A
// reference found at stack depth d+1 hits in a cache of more than d
// blocks.
func stackDistancesScan(tape *xfer.Tape, blockSize int64) *StackResult {
	refs := referenceString(tape, resolvedFor(tape, blockSize))
	res := &StackResult{BlockSize: blockSize, References: int64(len(refs))}
	// stack holds block IDs, most recently referenced first.
	stack := make([]int32, 0, 1024)
	var hist []int64
	for _, x := range refs {
		at := -1
		for i, b := range stack {
			if b == x {
				at = i
				break
			}
		}
		if at >= 0 {
			for len(hist) <= at {
				hist = append(hist, 0)
			}
			hist[at]++
			copy(stack[at:], stack[at+1:])
			stack = stack[:len(stack)-1]
		} else {
			res.ColdMisses++
		}
		stack = append(stack, 0)
		copy(stack[1:], stack)
		stack[0] = x
	}
	res.hist = hist
	return res
}

// TestGeneralStackLRUMatchesFenwick: the linear-scan stack oracle and
// the Fenwick-tree fast path are the same analysis, so the two must
// agree everywhere — cold misses, reference count, and miss count at
// every capacity.
func TestGeneralStackLRUMatchesFenwick(t *testing.T) {
	tape := mustTape(t, randomTrace(19, 500))
	for _, bs := range []int64{1024, 4096, 8192} {
		fast, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		gen := stackDistancesScan(tape, bs)
		if gen.References != fast.References || gen.ColdMisses != fast.ColdMisses {
			t.Fatalf("bs %d: general (%d refs, %d cold) vs fenwick (%d refs, %d cold)",
				bs, gen.References, gen.ColdMisses, fast.References, fast.ColdMisses)
		}
		for capBlocks := 0; capBlocks <= 2048; capBlocks++ {
			g, f := gen.Misses(int64(capBlocks)*bs), fast.Misses(int64(capBlocks)*bs)
			if g != f {
				t.Fatalf("bs %d cap %d: general %d misses, fenwick %d", bs, capBlocks, g, f)
			}
		}
	}
}

// gridSizes is the full sweep grid's cache-size axis: Table VI's sizes
// united with Table VII's.
func gridSizes() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, cs := range append(PaperCacheSizes(), PaperBlockCacheSizes()...) {
		if !seen[cs] {
			seen[cs] = true
			out = append(out, cs)
		}
	}
	return out
}

// TestStackOracleFullGrid extends the LRU stack oracle to the full sweep
// grid: at every paper block size and every paper cache size, an
// independent LRU cache replaying the reference string must miss exactly
// StackResult.Misses times.
func TestStackOracleFullGrid(t *testing.T) {
	tape := mustTape(t, randomTrace(19, 500))
	for _, bs := range PaperBlockSizes() {
		sr, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		refs := referenceString(tape, resolvedFor(tape, bs))
		for _, cs := range gridSizes() {
			capBlocks := int(cs / bs)
			lru := &simpleLRU{cap: capBlocks, blocks: make(map[int32]*lruNode)}
			var misses int64
			for _, id := range refs {
				if !lru.access(id) {
					misses++
				}
			}
			if got := sr.Misses(cs); got != misses {
				t.Errorf("bs %d cache %d: stack misses %d, LRU cache missed %d", bs, cs, got, misses)
			}
		}
	}
}

// TestStackMatchesSimulateReadOnly: on a read-only trace the full
// simulator has nothing but reference misses to bill — no write-backs,
// no purges, no flushes — so at every grid cell the LRU stack analysis
// must predict SimulateTape's disk reads exactly. This ties the one-pass
// analysis to the production replay engine end to end.
func TestStackMatchesSimulateReadOnly(t *testing.T) {
	b := newTB()
	nFiles := 12
	sizes := make([]int64, nFiles+1)
	for f := 1; f <= nFiles; f++ {
		sizes[f] = int64(f*7+3)*1024 + 137 // odd sizes: last block partial
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		f := 1 + rng.Intn(nFiles)
		b.read(trace.FileID(f), sizes[f])
	}
	tape := mustTape(t, b.events)

	for _, bs := range PaperBlockSizes() {
		sr, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range gridSizes() {
			res, err := SimulateTape(tape, Config{
				BlockSize:   bs,
				CacheSize:   cs,
				Write:       WriteThrough,
				Replacement: LRU,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DiskWrites != 0 {
				t.Fatalf("bs %d cache %d: read-only trace produced %d disk writes", bs, cs, res.DiskWrites)
			}
			if want := sr.Misses(cs); res.DiskReads != want {
				t.Errorf("bs %d cache %d: SimulateTape read %d blocks, stack analysis predicts %d",
					bs, cs, res.DiskReads, want)
			}
		}
	}
}
