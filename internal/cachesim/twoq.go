package cachesim

// 2Q (Johnson & Shasha, VLDB 1994), the full version. First-touch blocks
// enter a probationary FIFO (A1in). When an A1in block leaves the cache,
// its identity is remembered in a ghost FIFO (A1out); a re-insertion that
// hits the ghost list goes straight onto the main LRU list (Am), so only
// blocks re-referenced beyond the probationary window earn LRU treatment.
// Hits inside A1in deliberately do not reorder it — a correlated burst of
// accesses to a brand-new block is not evidence of long-term value.
//
// Tuning constants follow the paper: Kin (A1in's nominal share) is 1/4 of
// the capacity, Kout (ghost memory) is 1/2.
//
// The cache cannot tell the policy whether a remove is an eviction or a
// purge, so 2Q records every removed A1in block in A1out. For purged
// (dead-data) blocks the ghost is useless but harmless: the dense block
// IDs of deleted file data are never referenced again.

// Segment tags; A1out is a ghost list through the departed IDs' frame
// links.
const (
	qA1in = segNone + 1 + iota
	qAm
	qA1out
)

type twoQPolicy struct {
	boundFrames
	a1in  idList // probationary FIFO: front = newest
	am    idList // main LRU list
	a1out idList // identities of departed A1in blocks
	kin   int
	kout  int
}

func newTwoQPolicy(capacity int) *twoQPolicy {
	if capacity < 1 {
		capacity = 1
	}
	kin := capacity / 4
	if kin < 1 {
		kin = 1
	}
	kout := capacity / 2
	if kout < 1 {
		kout = 1
	}
	return &twoQPolicy{kin: kin, kout: kout}
}

func (p *twoQPolicy) insert(id int32) {
	fr := &p.f[id]
	if fr.seg == qA1out {
		p.a1out.remove(p.f, id)
		fr.seg = qAm
		p.am.pushFront(p.f, id)
		return
	}
	fr.seg = qA1in
	p.a1in.pushFront(p.f, id)
}

func (p *twoQPolicy) access(id int32) {
	if p.f[id].seg == qAm {
		p.am.moveToFront(p.f, id)
	}
	// A1in hits do not reorder the FIFO (see the package comment).
}

func (p *twoQPolicy) remove(id int32) {
	fr := &p.f[id]
	if fr.seg == qA1in {
		p.a1in.remove(p.f, id)
		fr.seg = qA1out
		p.a1out.pushFront(p.f, id)
		for p.a1out.n > p.kout {
			p.a1out.dropBack(p.f)
		}
		return
	}
	p.am.remove(p.f, id)
	fr.seg = segNone
}

// victim drains A1in while it holds more than its Kin share (or while Am
// is empty), otherwise evicts the Am tail.
func (p *twoQPolicy) victim() int32 {
	if (p.a1in.n > p.kin || p.am.n == 0) && p.a1in.n > 0 {
		return p.a1in.tail
	}
	if p.am.n > 0 {
		return p.am.tail
	}
	return p.a1in.back()
}

func (p *twoQPolicy) len() int { return p.a1in.n + p.am.n }
