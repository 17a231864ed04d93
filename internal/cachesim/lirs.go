package cachesim

// LIRS (Jiang & Zhang, SIGMETRICS 2002). Blocks are classified by
// inter-reference recency (IRR): LIR blocks (low IRR, re-referenced
// within a stack's worth of history) own almost all of the cache, and a
// small queue Q of HIR (high IRR) blocks absorbs the churn. The LIRS
// stack S orders LIR blocks, resident HIR blocks, and non-resident HIR
// ghosts by recency; a HIR block re-referenced while still on S has, by
// construction, an IRR smaller than the current maximum LIR recency and
// is promoted to LIR, demoting the stack-bottom LIR block to HIR.
//
// Sizing follows the paper: Q holds 1% of the capacity (at least one
// block), the LIR set the rest. Ghost entries (non-resident HIR) are
// bounded at 2x capacity; because a ghost never moves within S while it
// remains a ghost, a separate FIFO yields the oldest ghost in O(1)
// without scanning S.
//
// Each ID's standing (state, stack links, in-S flag) lives in a per-ID
// array beside the frames. Q holds only resident HIR blocks and the
// ghost FIFO only non-resident ones, so both thread through the frame
// links.
//
// Victims come from the front (oldest end) of Q; if purges have emptied
// Q, the bottommost LIR block on S stands in.

// An ID's state; lirsNone means it has no standing (neither on S nor
// in Q).
const (
	lirsNone uint8 = iota
	lirBlock
	hirResident
	hirGhost
)

// lirsNode is one ID's standing in the LIRS history.
type lirsNode struct {
	sPrev, sNext int32 // stack S links; sPrev = toward the top
	state        uint8
	inS          bool
}

type lirsPolicy struct {
	boundFrames
	n []lirsNode // indexed by ID, parallel to the frames
	// Stack S: sTop is the most recently referenced entry (nilID when
	// S is empty).
	sTop, sBot int32
	// Queue Q of resident HIR blocks: front = most recently queued, tail
	// = eviction candidate.
	q idList
	// Ghost FIFO of non-resident HIR blocks: tail = oldest.
	ghosts idList

	lirCap   int // target LIR population (capacity - Q share)
	nLIR     int
	ghostCap int
	resident int
}

func newLIRSPolicy(capacity int) *lirsPolicy {
	if capacity < 1 {
		capacity = 1
	}
	hirCap := capacity / 100
	if hirCap < 1 {
		hirCap = 1
	}
	return &lirsPolicy{
		sTop:     nilID,
		sBot:     nilID,
		lirCap:   capacity - hirCap,
		ghostCap: 2 * capacity,
	}
}

func (p *lirsPolicy) bind(f []frame, _ []int32) {
	p.f = f
	p.n = append(p.n, make([]lirsNode, len(f)-len(p.n))...)
}

// Stack S primitives.

func (p *lirsPolicy) stackPush(id int32) {
	e := &p.n[id]
	e.sPrev = nilID
	e.sNext = p.sTop
	if p.sTop != nilID {
		p.n[p.sTop].sPrev = id
	}
	p.sTop = id
	if p.sBot == nilID {
		p.sBot = id
	}
	e.inS = true
}

func (p *lirsPolicy) stackRemove(id int32) {
	e := &p.n[id]
	if e.sPrev != nilID {
		p.n[e.sPrev].sNext = e.sNext
	} else {
		p.sTop = e.sNext
	}
	if e.sNext != nilID {
		p.n[e.sNext].sPrev = e.sPrev
	} else {
		p.sBot = e.sPrev
	}
	e.inS = false
}

func (p *lirsPolicy) stackMoveToTop(id int32) {
	if p.n[id].inS {
		if p.sTop == id {
			return
		}
		p.stackRemove(id)
	}
	p.stackPush(id)
}

// prune pops non-LIR entries off the stack bottom until a LIR block (or
// nothing) anchors it — the stack-bottom LIR block defines the maximum
// IRR worth remembering, so deeper history is useless.
func (p *lirsPolicy) prune() {
	for p.sBot != nilID && p.n[p.sBot].state != lirBlock {
		id := p.sBot
		p.stackRemove(id)
		if p.n[id].state == hirGhost {
			p.ghosts.remove(p.f, id)
			p.n[id].state = lirsNone
		}
		// A resident HIR entry stays in Q; it merely loses its chance
		// at promotion.
	}
}

func (p *lirsPolicy) dropOldestGhost() {
	id := p.ghosts.back()
	if id == nilID {
		return
	}
	p.ghosts.remove(p.f, id)
	if p.n[id].inS {
		p.stackRemove(id)
	}
	p.n[id].state = lirsNone
	p.prune()
}

// demoteBottomLIR turns the stack-bottom LIR block into a resident HIR
// block at the fresh end of Q.
func (p *lirsPolicy) demoteBottomLIR() {
	id := p.sBot
	for id != nilID && p.n[id].state != lirBlock {
		id = p.n[id].sPrev
	}
	if id == nilID {
		return
	}
	p.stackRemove(id)
	p.n[id].state = hirResident
	p.nLIR--
	p.q.pushFront(p.f, id)
	p.prune()
}

func (p *lirsPolicy) insert(id int32) {
	e := &p.n[id]
	p.resident++
	if e.state == hirGhost {
		// Ghost hit: the re-reference happened within stack history, so
		// the block's IRR is low — it enters as LIR.
		p.ghosts.remove(p.f, id)
		e.state = lirBlock
		p.nLIR++
		p.stackMoveToTop(id)
		if p.nLIR > p.lirCap {
			p.demoteBottomLIR()
		}
		p.prune()
		return
	}
	if p.nLIR < p.lirCap {
		// Warmup: the LIR set fills first.
		e.state = lirBlock
		p.nLIR++
		p.stackPush(id)
		return
	}
	e.state = hirResident
	p.stackPush(id)
	p.q.pushFront(p.f, id)
}

func (p *lirsPolicy) access(id int32) {
	e := &p.n[id]
	switch e.state {
	case lirBlock:
		wasBottom := id == p.sBot
		p.stackMoveToTop(id)
		if wasBottom {
			p.prune()
		}
	case hirResident:
		if e.inS {
			// IRR below the LIR threshold: promote.
			e.state = lirBlock
			p.nLIR++
			p.stackMoveToTop(id)
			p.q.remove(p.f, id)
			if p.nLIR > p.lirCap {
				p.demoteBottomLIR()
			}
			p.prune()
			return
		}
		// Referenced but with high IRR: refresh both recency orders.
		p.stackPush(id)
		p.q.moveToFront(p.f, id)
	}
}

func (p *lirsPolicy) remove(id int32) {
	e := &p.n[id]
	switch e.state {
	case hirResident:
		p.q.remove(p.f, id)
		p.resident--
		if e.inS {
			// Keep the identity as a ghost: a quick re-reference still
			// proves low IRR.
			e.state = hirGhost
			p.ghosts.pushFront(p.f, id)
			if p.ghosts.n > p.ghostCap {
				p.dropOldestGhost()
			}
			return
		}
		e.state = lirsNone
	case lirBlock:
		// A LIR block leaving the cache (purge, or the empty-Q fallback
		// eviction) takes its history with it.
		p.stackRemove(id)
		e.state = lirsNone
		p.nLIR--
		p.resident--
		p.prune()
	}
}

func (p *lirsPolicy) victim() int32 {
	if p.q.n > 0 {
		return p.q.tail
	}
	// Q drained (purges, or a tiny cache that is all LIR): fall back to
	// the coldest LIR block.
	for id := p.sBot; id != nilID; id = p.n[id].sPrev {
		if p.n[id].state == lirBlock {
			return id
		}
	}
	return nilID
}

func (p *lirsPolicy) len() int { return p.resident }
