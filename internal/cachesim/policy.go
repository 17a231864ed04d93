package cachesim

// Policy is the exported, block-ID-level face of a replacement policy,
// the seam the differential test harness (replacertest), the fuzz
// targets, and the multi-replay miss-curve fallback drive. Callers speak
// in arbitrary int32 block IDs; Policy assigns each a dense internal ID
// on first touch and keeps the frames the policy links through, so
// callers never see either.
//
// Invalid operations are ignored rather than rejected: inserting a
// resident ID, or accessing/removing a non-resident one, is a no-op.
// That makes any operation sequence safe (the fuzz targets rely on it)
// while keeping valid sequences bit-deterministic.
//
// Policy does not evict by itself — like the simulator's cache, the
// caller runs the victim-then-remove discipline:
//
//	for p.Len() >= capacity {
//		v, ok := p.Victim()
//		if !ok {
//			break
//		}
//		p.Remove(v)
//	}
//	p.Insert(id)
type Policy struct {
	r        replacer
	capacity int
	// dense maps the caller's IDs to dense IDs; ext is its inverse. Both
	// cover every ID ever inserted, since ghost-keeping policies remember
	// departed IDs.
	dense map[int32]int32
	ext   []int32
	f     []frame
}

// NewPolicy builds a policy instance for capacity blocks. The seed feeds
// the Random policy and is ignored by the deterministic ones.
func NewPolicy(r Replacement, capacity int, seed int64) *Policy {
	if capacity < 1 {
		capacity = 1
	}
	return &Policy{
		r:        newReplacer(r, capacity, seed),
		capacity: capacity,
		dense:    make(map[int32]int32),
	}
}

// Capacity returns the block capacity the policy was built for.
func (p *Policy) Capacity() int { return p.capacity }

// Len returns the number of resident blocks.
func (p *Policy) Len() int { return p.r.len() }

// resident returns the dense ID of id when it is resident.
func (p *Policy) resident(id int32) (int32, bool) {
	d, ok := p.dense[id]
	return d, ok && p.f[d].resident
}

// Resident reports whether id is currently resident.
func (p *Policy) Resident(id int32) bool {
	_, ok := p.resident(id)
	return ok
}

// Insert makes id resident. Inserting a resident id is a no-op.
func (p *Policy) Insert(id int32) {
	d, ok := p.dense[id]
	if !ok {
		d = int32(len(p.dense))
		p.dense[id] = d
		if int(d) == len(p.f) {
			// Grow the frames (and the ID map the policy hashes through)
			// and rebind the policy to the new slices.
			n := max(2*len(p.f), 16)
			p.f = append(p.f, make([]frame, n-len(p.f))...)
			p.ext = append(p.ext, make([]int32, n-len(p.ext))...)
			p.r.bind(p.f, p.ext)
		}
		p.ext[d] = id
	}
	if p.f[d].resident {
		return
	}
	p.f[d].resident = true
	p.r.insert(d)
}

// Access records a hit on a resident id; non-resident ids are ignored.
func (p *Policy) Access(id int32) {
	if d, ok := p.resident(id); ok {
		p.r.access(d)
	}
}

// Remove evicts or purges a resident id; non-resident ids are ignored.
func (p *Policy) Remove(id int32) {
	if d, ok := p.resident(id); ok {
		p.f[d].resident = false
		p.r.remove(d)
	}
}

// Victim returns the policy's current eviction candidate, or ok=false on
// an empty cache. The caller decides whether to Remove it.
func (p *Policy) Victim() (int32, bool) {
	d := p.r.victim()
	if d == nilID {
		return 0, false
	}
	return p.ext[d], true
}
