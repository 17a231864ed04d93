package cachesim

// ARC (Megiddo & Modha, FAST 2003), adapted to the replacer seam. The
// resident blocks are split between T1 (seen once recently) and T2 (seen
// at least twice); B1 and B2 remember the identities of blocks recently
// evicted from each side. The adaptation parameter p is T1's target size:
// a re-insertion that hits B1 (the recency ghost) grows p, one that hits
// B2 (the frequency ghost) shrinks it, so the split continuously tracks
// which side is turning ghosts into hits.
//
// Two deliberate departures from the textbook REPLACE routine, forced by
// the seam (the policy never sees the incoming block ID at victim time
// and cannot tell evictions from purges apart):
//
//   - the "x in B2 and |T1| == p" tie-break evicts from T2 in the paper;
//     here the tie always evicts from T1 (the adaptation of p dominates
//     the curves, the tie-break does not);
//   - every remove ghosts the departed block (a purged block's ghost is
//     dead weight but harmless — dead data is never re-referenced).
//
// The reference implementation in replacertest mirrors exactly this
// variant, and the conformance + differential tests pin it.

// Segment tags. B1 and B2 are ghost lists: their IDs are not resident,
// so they reuse the frame links the resident lists T1 and T2 would use.
const (
	aT1 = segNone + 1 + iota
	aT2
	aB1
	aB2
)

type arcPolicy struct {
	boundFrames
	t1, t2 idList // resident: front = most recent
	b1, b2 idList // ghosts: front = most recently departed
	c      int    // capacity in blocks
	p      int    // target size of T1, 0..c
}

func newARCPolicy(capacity int) *arcPolicy {
	if capacity < 1 {
		capacity = 1
	}
	return &arcPolicy{c: capacity}
}

func (a *arcPolicy) insert(id int32) {
	fr := &a.f[id]
	switch fr.seg {
	case aB1:
		// B1 hit: recency side deserves more room.
		delta := 1
		if a.b2.n > a.b1.n {
			delta = a.b2.n / a.b1.n
		}
		a.p += delta
		if a.p > a.c {
			a.p = a.c
		}
		a.b1.remove(a.f, id)
		fr.seg = aT2
		a.t2.pushFront(a.f, id)
	case aB2:
		// B2 hit: frequency side deserves more room.
		delta := 1
		if a.b1.n > a.b2.n {
			delta = a.b1.n / a.b2.n
		}
		a.p -= delta
		if a.p < 0 {
			a.p = 0
		}
		a.b2.remove(a.f, id)
		fr.seg = aT2
		a.t2.pushFront(a.f, id)
	default:
		fr.seg = aT1
		a.t1.pushFront(a.f, id)
	}
	a.trimGhosts()
}

// trimGhosts bounds the history: |T1|+|B1| <= c (the paper's L1 bound)
// and total directory size <= 2c.
func (a *arcPolicy) trimGhosts() {
	for a.t1.n+a.b1.n > a.c && a.b1.n > 0 {
		a.b1.dropBack(a.f)
	}
	for a.t1.n+a.t2.n+a.b1.n+a.b2.n > 2*a.c {
		if a.b2.n > 0 {
			a.b2.dropBack(a.f)
		} else if a.b1.n > 0 {
			a.b1.dropBack(a.f)
		} else {
			break
		}
	}
}

func (a *arcPolicy) access(id int32) {
	fr := &a.f[id]
	if fr.seg == aT1 {
		a.t1.remove(a.f, id)
		fr.seg = aT2
		a.t2.pushFront(a.f, id)
		return
	}
	a.t2.moveToFront(a.f, id)
}

func (a *arcPolicy) remove(id int32) {
	fr := &a.f[id]
	if fr.seg == aT1 {
		a.t1.remove(a.f, id)
		fr.seg = aB1
		a.b1.pushFront(a.f, id)
	} else {
		a.t2.remove(a.f, id)
		fr.seg = aB2
		a.b2.pushFront(a.f, id)
	}
	a.trimGhosts()
}

// victim evicts the T1 tail while T1 exceeds its target p (or T2 is
// empty), otherwise the T2 tail.
func (a *arcPolicy) victim() int32 {
	if a.t1.n > 0 && (a.t1.n > a.p || a.t2.n == 0) {
		return a.t1.tail
	}
	if a.t2.n > 0 {
		return a.t2.tail
	}
	return a.t1.back()
}

func (a *arcPolicy) len() int { return a.t1.n + a.t2.n }
