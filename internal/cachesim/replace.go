package cachesim

import (
	"fmt"
	"strings"

	"bsdtrace/internal/dist"
)

// Replacement selects the cache replacement policy. The paper's simulator
// uses LRU exclusively; the classic alternatives (FIFO, Clock, Random) are
// ablations quantifying how much of the cache's benefit depends on that
// choice, and the modern zoo (ARC, 2Q, SLRU, LIRS, TinyLFU) asks how far a
// smarter policy could have pushed the 1985 curves.
type Replacement uint8

// Replacement policies.
const (
	// LRU evicts the least recently used block (the paper's policy).
	LRU Replacement = iota
	// FIFO evicts the oldest-inserted block regardless of use.
	FIFO
	// Clock is the one-bit second-chance approximation of LRU.
	Clock
	// Random evicts a uniformly random block.
	Random
	// ARC adapts the split between a recency list and a frequency list
	// using ghosts of recently evicted blocks (Megiddo & Modha).
	ARC
	// TwoQ keeps first-touch blocks in a probationary FIFO and promotes
	// only on a second miss that hits the ghost queue (Johnson & Shasha).
	TwoQ
	// SLRU segments the cache into a probationary and a protected LRU
	// list; only a second access promotes into the protected segment.
	SLRU
	// LIRS ranks blocks by inter-reference recency rather than recency
	// alone, keeping low-IRR blocks resident (Jiang & Zhang).
	LIRS
	// TinyLFU fronts an SLRU main cache with a tiny admission window and
	// a count-min frequency sketch: a window victim displaces the main
	// victim only if its estimated frequency is higher (Einziger et al.).
	TinyLFU

	// numReplacements is the exhaustive-iteration sentinel; every policy
	// above it must be handled by String, ParseReplacement, and
	// newReplacer (the round-trip test walks 0..numReplacements-1).
	numReplacements
)

// String names the policy; ParseReplacement accepts every name it emits.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Clock:
		return "clock"
	case Random:
		return "random"
	case ARC:
		return "arc"
	case TwoQ:
		return "2q"
	case SLRU:
		return "slru"
	case LIRS:
		return "lirs"
	case TinyLFU:
		return "tinylfu"
	}
	return "replacement(?)"
}

// ParseReplacement maps a policy name to its Replacement value. It is the
// inverse of String and additionally accepts a few common aliases
// ("twoq", "segmented-lru", "tiny-lfu"), case-insensitively.
func ParseReplacement(name string) (Replacement, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "clock":
		return Clock, nil
	case "random":
		return Random, nil
	case "arc":
		return ARC, nil
	case "2q", "twoq":
		return TwoQ, nil
	case "slru", "segmented-lru":
		return SLRU, nil
	case "lirs":
		return LIRS, nil
	case "tinylfu", "tiny-lfu":
		return TinyLFU, nil
	}
	return 0, fmt.Errorf("cachesim: unknown replacement policy %q (want one of %s)", name, replacementNames())
}

// AllReplacements returns every replacement policy in canonical order
// (the classic four first, then the modern zoo).
func AllReplacements() []Replacement {
	all := make([]Replacement, numReplacements)
	for i := range all {
		all[i] = Replacement(i)
	}
	return all
}

func replacementNames() string {
	names := make([]string, 0, numReplacements)
	for _, r := range AllReplacements() {
		names = append(names, r.String())
	}
	return strings.Join(names, ", ")
}

// replacer is the internal interface a replacement policy implements.
// Policies work in dense block IDs and keep their lists in the frame
// slice they are bound to (see frame). The cache calls insert on fill,
// access on every hit, remove on both purges and evictions (a policy
// cannot tell the two apart), and victim to choose an eviction candidate
// (which the cache then removes). victim may rearrange internal state
// (TinyLFU moves an admitted window block into the main cache) but must
// never change len or residency, and must return a currently resident
// ID whenever len > 0 (nilID otherwise).
type replacer interface {
	// bind attaches the policy to the frame slice, which holds one frame
	// per ID the policy may see; it is called before the first operation
	// and again whenever the slice grows. keys, when non-nil, maps each
	// dense ID to the caller's own ID, for policies whose decisions
	// depend on ID values (TinyLFU hashes them).
	bind(f []frame, keys []int32)
	insert(id int32)
	access(id int32)
	remove(id int32)
	victim() int32
	len() int
}

// newReplacer builds the policy. capacity is the cache's block capacity:
// the classic policies ignore it, but the zoo policies size their internal
// segments and ghost lists from it.
func newReplacer(r Replacement, capacity int, seed int64) replacer {
	switch r {
	case LRU:
		return &listPolicy{moveOnAccess: true}
	case FIFO:
		return &listPolicy{}
	case Clock:
		return &clockPolicy{hand: nilID}
	case Random:
		return &randomPolicy{src: dist.NewSource(seed), capacity: capacity}
	case ARC:
		return newARCPolicy(capacity)
	case TwoQ:
		return newTwoQPolicy(capacity)
	case SLRU:
		return newSLRUPolicy(capacity)
	case LIRS:
		return newLIRSPolicy(capacity)
	case TinyLFU:
		return newTinyLFUPolicy(capacity)
	default:
		panic("cachesim: unknown replacement policy")
	}
}

// boundFrames is the frame binding most policies need: the slice, and nothing
// derived from it.
type boundFrames struct{ f []frame }

func (b *boundFrames) bind(f []frame, _ []int32) { b.f = f }

// idList is a doubly-linked list of block IDs threaded through the
// frames' prev/next links. A frame sits on at most one list at a time,
// whether it is resident (a policy segment) or a ghost (history of a
// departed block), and its seg byte says which. The zero value is an
// empty list.
type idList struct {
	head, tail int32 // head = most recent; meaningful only when n > 0
	n          int
}

func (l *idList) pushFront(f []frame, id int32) {
	fr := &f[id]
	fr.prev = nilID
	if l.n == 0 {
		fr.next = nilID
		l.tail = id
	} else {
		fr.next = l.head
		f[l.head].prev = id
	}
	l.head = id
	l.n++
}

func (l *idList) remove(f []frame, id int32) {
	fr := &f[id]
	if fr.prev == nilID {
		l.head = fr.next
	} else {
		f[fr.prev].next = fr.next
	}
	if fr.next == nilID {
		l.tail = fr.prev
	} else {
		f[fr.next].prev = fr.prev
	}
	l.n--
}

func (l *idList) moveToFront(f []frame, id int32) {
	if l.head == id {
		return
	}
	l.remove(f, id)
	l.pushFront(f, id)
}

// back returns the least recent ID, or nilID on an empty list.
func (l *idList) back() int32 {
	if l.n == 0 {
		return nilID
	}
	return l.tail
}

// dropBack removes the least recent ID of a ghost list and clears its
// segment tag.
func (l *idList) dropBack(f []frame) {
	if l.n > 0 {
		id := l.tail
		l.remove(f, id)
		f[id].seg = segNone
	}
}

// listPolicy implements LRU (moveOnAccess) and FIFO (insertion order).
// The victim is always the list tail.
type listPolicy struct {
	boundFrames
	list         idList
	moveOnAccess bool
}

func (p *listPolicy) insert(id int32) { p.list.pushFront(p.f, id) }
func (p *listPolicy) access(id int32) {
	if p.moveOnAccess {
		p.list.moveToFront(p.f, id)
	}
}
func (p *listPolicy) remove(id int32) { p.list.remove(p.f, id) }
func (p *listPolicy) victim() int32   { return p.list.back() }
func (p *listPolicy) len() int        { return p.list.n }

// clockPolicy approximates LRU with a reference bit per block and a
// sweeping hand. Blocks live on one ID list; the hand walks from the
// tail toward the head, giving referenced blocks a second chance.
type clockPolicy struct {
	boundFrames
	list idList
	hand int32 // nilID: start at the tail
}

func (p *clockPolicy) insert(id int32) {
	p.f[id].ref = false
	p.list.pushFront(p.f, id)
}
func (p *clockPolicy) access(id int32) { p.f[id].ref = true }
func (p *clockPolicy) remove(id int32) {
	if p.hand == id {
		p.hand = p.f[id].prev
		if p.hand == nilID {
			p.hand = p.list.tail
		}
		if p.hand == id {
			p.hand = nilID
		}
	}
	p.list.remove(p.f, id)
}
func (p *clockPolicy) victim() int32 {
	if p.list.n == 0 {
		return nilID
	}
	if p.hand == nilID {
		p.hand = p.list.tail
	}
	// Two sweeps suffice: the first clears every referenced bit on the
	// way, so the second finds an unreferenced block.
	for i := 0; i < 2*p.list.n; i++ {
		id := p.hand
		fr := &p.f[id]
		if !fr.ref {
			return id
		}
		fr.ref = false
		p.hand = fr.prev
		if p.hand == nilID {
			p.hand = p.list.tail
		}
	}
	return p.list.tail
}
func (p *clockPolicy) len() int { return p.list.n }

// randomPolicy evicts a uniformly random block. Resident IDs are kept
// in a slice with back-swap deletion; pos maps each resident ID to its
// slot.
type randomPolicy struct {
	ids      []int32
	pos      []int32
	src      *dist.Source
	capacity int
}

func (p *randomPolicy) bind(f []frame, _ []int32) {
	p.pos = append(p.pos, make([]int32, len(f)-len(p.pos))...)
	// Residency never exceeds the capacity or the ID count, so sizing
	// ids once here keeps every later insert allocation-free.
	if n := min(p.capacity, len(f)); cap(p.ids) < n {
		p.ids = append(make([]int32, 0, n), p.ids...)
	}
}
func (p *randomPolicy) insert(id int32) {
	p.pos[id] = int32(len(p.ids))
	p.ids = append(p.ids, id)
}
func (p *randomPolicy) access(int32) {}
func (p *randomPolicy) remove(id int32) {
	last := len(p.ids) - 1
	slot := p.pos[id]
	moved := p.ids[last]
	p.ids[slot] = moved
	p.pos[moved] = slot
	p.ids = p.ids[:last]
}
func (p *randomPolicy) victim() int32 {
	if len(p.ids) == 0 {
		return nilID
	}
	return p.ids[p.src.Intn(len(p.ids))]
}
func (p *randomPolicy) len() int { return len(p.ids) }
