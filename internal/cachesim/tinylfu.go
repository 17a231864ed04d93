package cachesim

// TinyLFU-style admission (Einziger, Friedman & Manes, 2015) in its
// W-TinyLFU arrangement: a small LRU window (1% of capacity) absorbs new
// arrivals, the remaining capacity is a segmented-LRU main cache, and a
// count-min sketch estimates each block's reference frequency. When the
// window overflows, its tail duels the main cache's eviction candidate:
// the window block is admitted (displacing the candidate) only if the
// sketch says it is the more frequently referenced of the two. One-hit
// wonders therefore die in the window without ever touching the proven
// working set.
//
// The duel happens inside victim(): deciding who to evict is exactly the
// admission decision. Because the cache evicts before inserting, the
// incoming block is never visible at victim time; the window tail — the
// least recently used arrival — is the standing admission candidate
// instead. victim() may migrate window blocks into the main probation
// segment (filling spare main capacity, or moving an admitted duel
// winner) before returning the loser: a state rearrangement, never a
// change of residency or len (the sketch is only updated on insert and
// access, not in the duel).
//
// The sketch is 4 rows of 4-bit-saturating counters (stored one counter
// per byte for simplicity; the simulator optimizes replay time, not
// simulator memory), halved every 10x-capacity increments so stale
// popularity decays (the "reset" operation of the paper).

const (
	tWindow = segNone + 1 + iota
	tProbation
	tProtected
)

type tinyLFUPolicy struct {
	boundFrames
	window    idList
	probation idList
	protected idList
	winCap    int
	mainCap   int
	protCap   int
	sketch    cmSketch
	// keys maps dense IDs to the caller's IDs, which are what the sketch
	// hashes (nil: the dense IDs are the caller's).
	keys []int32
}

func newTinyLFUPolicy(capacity int) *tinyLFUPolicy {
	if capacity < 1 {
		capacity = 1
	}
	winCap := capacity / 100
	if winCap < 1 {
		winCap = 1
	}
	mainCap := capacity - winCap
	protCap := mainCap * 4 / 5
	p := &tinyLFUPolicy{winCap: winCap, mainCap: mainCap, protCap: protCap}
	p.sketch.init(capacity)
	return p
}

func (p *tinyLFUPolicy) bind(f []frame, keys []int32) { p.f, p.keys = f, keys }

func (p *tinyLFUPolicy) key(id int32) int32 {
	if p.keys != nil {
		return p.keys[id]
	}
	return id
}

func (p *tinyLFUPolicy) insert(id int32) {
	p.sketch.add(p.key(id))
	p.f[id].seg = tWindow
	p.window.pushFront(p.f, id)
}

func (p *tinyLFUPolicy) access(id int32) {
	p.sketch.add(p.key(id))
	fr := &p.f[id]
	switch fr.seg {
	case tWindow:
		p.window.moveToFront(p.f, id)
	case tProtected:
		p.protected.moveToFront(p.f, id)
	default:
		// Probation hit: promote, demoting protected overflow back to
		// probation (same discipline as the standalone SLRU policy).
		p.probation.remove(p.f, id)
		fr.seg = tProtected
		p.protected.pushFront(p.f, id)
		for p.protected.n > p.protCap {
			d := p.protected.tail
			p.protected.remove(p.f, d)
			p.f[d].seg = tProbation
			p.probation.pushFront(p.f, d)
		}
	}
}

func (p *tinyLFUPolicy) remove(id int32) {
	switch p.f[id].seg {
	case tWindow:
		p.window.remove(p.f, id)
	case tProtected:
		p.protected.remove(p.f, id)
	default:
		p.probation.remove(p.f, id)
	}
}

func (p *tinyLFUPolicy) mainVictim() int32 {
	if p.probation.n > 0 {
		return p.probation.tail
	}
	return p.protected.back()
}

// admit moves the window tail into the main cache's probation segment.
func (p *tinyLFUPolicy) admit() {
	w := p.window.tail
	p.window.remove(p.f, w)
	p.f[w].seg = tProbation
	p.probation.pushFront(p.f, w)
}

func (p *tinyLFUPolicy) victim() int32 {
	// Window overflow drains into spare main capacity without a duel
	// (this is how the main cache bootstraps: before the first eviction
	// every block sits in the window).
	for p.window.n > p.winCap && p.probation.n+p.protected.n < p.mainCap {
		p.admit()
	}
	if p.window.n >= p.winCap && p.window.n > 0 {
		w := p.window.tail
		m := p.mainVictim()
		if m == nilID {
			return w
		}
		// The admission duel. Strict inequality: on a tie the incumbent
		// wins, keeping a scan of never-repeated blocks out of the main
		// cache.
		if p.sketch.estimate(p.key(w)) > p.sketch.estimate(p.key(m)) {
			p.admit()
			return m
		}
		return w
	}
	if m := p.mainVictim(); m != nilID {
		return m
	}
	return p.window.back()
}

func (p *tinyLFUPolicy) len() int { return p.window.n + p.probation.n + p.protected.n }

// cmSketch is a count-min sketch of reference frequencies: sketchRows
// hash rows of saturating counters, the estimate being the row minimum.
// All hashing is fixed odd-constant multiplicative mixing, so replays
// are bit-deterministic.
const (
	sketchRows     = 4
	sketchMaxCount = 15
)

type cmSketch struct {
	rows  [sketchRows][]uint8
	mask  uint32
	adds  int
	reset int
}

// sketchSeeds are arbitrary odd 32-bit constants (splitmix64 outputs).
var sketchSeeds = [sketchRows]uint32{0x9e3779b9, 0x85ebca6b, 0xc2b2ae35, 0x27d4eb2f}

func (s *cmSketch) init(capacity int) {
	// Width: the next power of two above 8x capacity, clamped so tiny
	// caches still get enough spread and huge ones stay affordable.
	width := 64
	for width < 8*capacity && width < 1<<17 {
		width <<= 1
	}
	s.mask = uint32(width - 1)
	for r := range s.rows {
		s.rows[r] = make([]uint8, width)
	}
	s.reset = 10 * capacity
	if s.reset < 640 {
		s.reset = 640
	}
}

func (s *cmSketch) index(id int32, row int) uint32 {
	h := uint32(id)*sketchSeeds[row] + sketchSeeds[row]>>1
	h ^= h >> 15
	h *= 0x2c1b3c6d
	h ^= h >> 12
	return h & s.mask
}

func (s *cmSketch) add(id int32) {
	for r := 0; r < sketchRows; r++ {
		c := &s.rows[r][s.index(id, r)]
		if *c < sketchMaxCount {
			*c++
		}
	}
	s.adds++
	if s.adds >= s.reset {
		s.adds = 0
		for r := range s.rows {
			row := s.rows[r]
			for i := range row {
				row[i] >>= 1
			}
		}
	}
}

func (s *cmSketch) estimate(id int32) uint8 {
	min := uint8(sketchMaxCount)
	for r := 0; r < sketchRows; r++ {
		if c := s.rows[r][s.index(id, r)]; c < min {
			min = c
		}
	}
	return min
}
