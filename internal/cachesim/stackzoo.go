package cachesim

// Generalized stack analysis and the miss-curve front end for the policy
// zoo. Mattson's one-pass algorithm is not LRU-specific: it applies to
// any policy that ranks blocks by a priority independent of cache
// capacity, because such a policy's cache of C blocks always holds
// exactly the C highest-priority blocks (the inclusion property). The
// classic instance is LRU (priority = recency); this file adds the
// perfect-LFU instance (priority = lifetime frequency, recency breaking
// ties) and a MissCurveTape front end that silently falls back to
// per-size tape replay for the zoo policies, whose adaptive state (ARC's
// p, LIRS's ghosts, TinyLFU's sketch duels) breaks inclusion.

import (
	"fmt"

	"bsdtrace/internal/par"
	"bsdtrace/internal/xfer"
)

// StackInclusion reports whether the policy satisfies the stack
// inclusion property — the contents of a cache of C blocks are always a
// subset of a cache of C+1 blocks on the same reference string — so that
// one Mattson pass yields its exact miss count at every size at once.
// Among the shipped policies only LRU qualifies: FIFO and Clock order by
// insertion (a capacity-dependent event), Random is randomized, and the
// zoo policies all carry capacity-scaled internal structure (segment
// sizes, ghost lists, sketch widths) that changes relative block ranking
// as the cache grows. For those, MissCurveTape replays the tape once per
// size instead.
func (r Replacement) StackInclusion() bool { return r == LRU }

// StackPolicy selects the priority ordering of the generalized stack
// analysis.
type StackPolicy uint8

const (
	// StackLRU ranks by recency alone — Mattson's classic instance,
	// identical to StackDistancesTape (which computes it faster with a
	// Fenwick tree; this path exists as its differential oracle).
	StackLRU StackPolicy = iota
	// StackLFU ranks by lifetime reference frequency, recency breaking
	// ties ("perfect LFU": counts survive eviction). The induced cache
	// policy both evicts and *admits* by priority — a referenced block
	// whose frequency is still below every resident block's is counted a
	// miss and not cached, exactly as a priority stack demands.
	StackLFU
)

func (p StackPolicy) String() string {
	switch p {
	case StackLRU:
		return "stack-lru"
	case StackLFU:
		return "stack-lfu"
	}
	return "stackpolicy(?)"
}

// StackDistancesPolicyTape runs the generalized Mattson analysis over a
// tape's reference string: one pass maintaining the priority stack,
// where a reference at stack depth d+1 hits in a cache of more than d
// blocks. The returned StackResult answers Misses/MissRatio/Curve for
// every cache size, under the stack-managed variant of the policy.
//
// The stack is a plain slice scanned linearly (O(references x distinct
// blocks) worst case) — fine for analysis and oracle duty; the
// production LRU path is StackDistancesTape's Fenwick tree.
func StackDistancesPolicyTape(tape *xfer.Tape, blockSize int64, pol StackPolicy) (*StackResult, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cachesim: block size %d must be positive", blockSize)
	}
	if pol != StackLRU && pol != StackLFU {
		return nil, fmt.Errorf("cachesim: unknown stack policy %d", pol)
	}
	r := resolvedFor(tape, blockSize)
	refs := referenceString(tape, r)

	res := &StackResult{BlockSize: blockSize, References: int64(len(refs))}
	freq := make([]int64, r.nBlocks())
	// stack holds block IDs in priority order, highest first. For LRU
	// that is pure recency; for LFU it is frequency descending with the
	// most recently referenced block first within each frequency class.
	stack := make([]int32, 0, 1024)
	var maxDist int
	distCount := make(map[int]int64)
	for _, x := range refs {
		// Depth before this reference decides hit or miss at each size.
		at := -1
		for i, b := range stack {
			if b == x {
				at = i
				break
			}
		}
		if at >= 0 {
			distCount[at]++
			if at > maxDist {
				maxDist = at
			}
			copy(stack[at:], stack[at+1:])
			stack = stack[:len(stack)-1]
		} else {
			res.ColdMisses++
		}
		freq[x]++
		// Reinsert at the top of x's priority class: for LRU the very
		// top; for LFU below every strictly more frequent block (x is
		// the most recent of its own frequency class by construction).
		ins := 0
		if pol == StackLFU {
			for ins < len(stack) && freq[stack[ins]] > freq[x] {
				ins++
			}
		}
		stack = append(stack, 0)
		copy(stack[ins+1:], stack[ins:])
		stack[ins] = x
	}
	res.hist = make([]int64, maxDist+1)
	for d, c := range distCount {
		res.hist[d] = c
	}
	return res, nil
}

// MissCurveTape returns the reference miss count of the given
// replacement policy at each cache size, in the order given. For
// policies with the stack inclusion property (LRU) this is one Mattson
// pass; for the rest the tape's reference string is replayed once per
// size through the real policy under the simulator's victim-then-insert
// discipline, in parallel across sizes. Like the stack analysis — and
// unlike SimulateTape — this counts pure reference misses: no write
// policy, no purges, no synthesized exec page-ins.
func MissCurveTape(tape *xfer.Tape, blockSize int64, rep Replacement, cacheSizes []int64, seed int64) ([]int64, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cachesim: block size %d must be positive", blockSize)
	}
	if rep >= numReplacements {
		return nil, fmt.Errorf("cachesim: unknown replacement policy %d", rep)
	}
	for _, cs := range cacheSizes {
		if cs <= 0 {
			return nil, fmt.Errorf("cachesim: cache size %d must be positive", cs)
		}
	}
	out := make([]int64, len(cacheSizes))
	if rep.StackInclusion() {
		sr, err := StackDistancesTape(tape, blockSize)
		if err != nil {
			return nil, err
		}
		for i, cs := range cacheSizes {
			out[i] = sr.Misses(cs)
		}
		return out, nil
	}
	r := resolvedFor(tape, blockSize)
	refs := referenceString(tape, r)
	err := par.Run(len(cacheSizes), func(i int) error {
		capBlocks := int(cacheSizes[i] / blockSize)
		if capBlocks < 1 {
			// A cache that cannot hold one block misses every reference,
			// matching StackResult.Misses at the same degenerate size.
			out[i] = int64(len(refs))
			return nil
		}
		p := NewPolicy(rep, capBlocks, seed)
		resident := make([]bool, r.nBlocks())
		var misses int64
		for _, id := range refs {
			if resident[id] {
				p.Access(id)
				continue
			}
			misses++
			for p.Len() >= capBlocks {
				v, ok := p.Victim()
				if !ok {
					return fmt.Errorf("cachesim: %v victim failed with %d resident", rep, p.Len())
				}
				p.Remove(v)
				resident[v] = false
			}
			p.Insert(id)
			resident[id] = true
		}
		out[i] = misses
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
