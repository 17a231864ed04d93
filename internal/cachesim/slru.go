package cachesim

// Segmented LRU (Karedla, Love & Wherry, 1994). The cache is split into a
// probationary and a protected LRU segment. A block enters on probation;
// only a hit while on probation promotes it into the protected segment, so
// blocks referenced exactly once drain out of probation without ever
// displacing the proven re-reference set. The protected segment is capped
// at 4/5 of the capacity; overflow demotes its LRU tail back to the head
// of probation (it keeps a second chance, but competes with new arrivals
// again).
//
// Segment membership is tagged in the frame's seg byte.

const (
	segProbation = segNone + 1 + iota
	segProtected
)

type slruPolicy struct {
	boundFrames
	probation idList
	protected idList
	// protCap bounds the protected segment; capacity*4/5, and always at
	// least one below the total capacity so probation can hold a new
	// arrival.
	protCap int
}

func newSLRUPolicy(capacity int) *slruPolicy {
	if capacity < 1 {
		capacity = 1
	}
	pc := capacity * 4 / 5
	if pc >= capacity {
		pc = capacity - 1
	}
	return &slruPolicy{protCap: pc}
}

func (p *slruPolicy) insert(id int32) {
	p.f[id].seg = segProbation
	p.probation.pushFront(p.f, id)
}

func (p *slruPolicy) access(id int32) {
	fr := &p.f[id]
	if fr.seg == segProtected {
		p.protected.moveToFront(p.f, id)
		return
	}
	// Promotion: probation hit moves to the protected head; protected
	// overflow demotes its tail to the probation head.
	p.probation.remove(p.f, id)
	fr.seg = segProtected
	p.protected.pushFront(p.f, id)
	for p.protected.n > p.protCap {
		d := p.protected.tail
		p.protected.remove(p.f, d)
		p.f[d].seg = segProbation
		p.probation.pushFront(p.f, d)
	}
}

func (p *slruPolicy) remove(id int32) {
	if p.f[id].seg == segProtected {
		p.protected.remove(p.f, id)
	} else {
		p.probation.remove(p.f, id)
	}
}

// victim prefers the probation tail; an empty probation (everything
// promoted) falls back to the protected tail.
func (p *slruPolicy) victim() int32 {
	if p.probation.n > 0 {
		return p.probation.tail
	}
	return p.protected.back()
}

func (p *slruPolicy) len() int { return p.probation.n + p.protected.n }
