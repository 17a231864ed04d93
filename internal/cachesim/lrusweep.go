package cachesim

import (
	"math"
	"slices"

	"bsdtrace/internal/par"
	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// The one-pass LRU sweep engine.
//
// LRU is a stack algorithm (Mattson et al., 1970): a cache of C blocks
// holds exactly the blocks a larger LRU cache holds at its C shallowest
// stack depths. It stays one with purges if a purge leaves a hole
// instead of closing the gap, so one replay serves every cache size.
// The engine keeps one LRU list per band, where band b holds the blocks
// at the stack depths between consecutive cache capacities
// C[b-1] < depth <= C[b], at most C[b]-C[b-1] of them, and cache j is
// the union of bands 0..j.
//
//   - A reference to a block found in band b hits in cache b and every
//     larger cache and misses in every smaller one. The block moves to
//     the head of band 0, and a band that now holds more than its share
//     passes its LRU block to the next band: that block is evicted from
//     the band's cache. The cascade stops at the first band with a free
//     slot (band b itself, at the latest).
//   - A purge removes the block from its band, leaving a hole there.
//   - For each write-back policy a block carries the lowest band whose
//     cache holds it dirty (it is dirty in every larger cache too). A
//     write sets it to band 0; an eviction from cache j of a block dirty
//     there writes it back and moves the mark to band j+1. A flush-back
//     scan writes, in each cache, the blocks dirty there (a running sum
//     of the per-band dirty counts), then clears every mark by bumping
//     the policy's epoch.
//   - Write-through writes every write access in every cache.
//
// This is the write-back half of Thompson and Smith's stack algorithms
// (ACM TOCS 7(1), 1989), with holes for purges. Every Result equals the
// per-configuration replay's, which stays as the engine's oracle.

// writeSpec is one write policy of a sweep.
type writeSpec struct {
	write    WritePolicy
	interval trace.Time
}

// dirtyMark is a block's dirty state under one write-back policy: the
// lowest band whose cache holds it dirty, valid only while epoch is the
// policy's current one.
type dirtyMark struct {
	epoch uint32
	band  int32
}

// writeBack is one write-back policy's state in a pass. Counts indexed
// by band are summed over bands 0..j to give cache j's.
type writeBack struct {
	interval, next trace.Time
	// epoch starts at 1, so zero marks read as clean.
	epoch uint32
	marks []dirtyMark
	// dirty[b] counts blocks whose mark is band b; discarded[b] the
	// purged ones. writes[j] counts cache j's disk writes.
	dirty, discarded, writes []int64
}

// write marks block id, now at the head of band 0, dirty in every cache.
func (w *writeBack) write(id int32) {
	m := &w.marks[id]
	if m.epoch == w.epoch {
		if m.band == 0 {
			return
		}
		w.dirty[m.band]--
	}
	*m = dirtyMark{epoch: w.epoch}
	w.dirty[0]++
}

// evict notes block id leaving band j, the last band if j+1 == len(dirty).
func (w *writeBack) evict(id int32, j int) {
	m := &w.marks[id]
	if m.epoch != w.epoch || int(m.band) != j {
		return
	}
	w.writes[j]++
	w.dirty[j]--
	if m.band++; int(m.band) < len(w.dirty) {
		w.dirty[m.band]++
	} else {
		m.epoch = 0
	}
}

// purge notes block id dying in the cache.
func (w *writeBack) purge(id int32) {
	if m := &w.marks[id]; m.epoch == w.epoch {
		w.discarded[m.band]++
		w.dirty[m.band]--
		m.epoch = 0
	}
}

// flush runs the flush-back scans due at or before t. Only the first
// finds anything dirty.
func (w *writeBack) flush(t trace.Time) {
	if t < w.next {
		return
	}
	var sum int64
	for j := range w.dirty {
		sum += w.dirty[j]
		w.writes[j] += sum
		w.dirty[j] = 0
	}
	w.epoch++
	for w.next <= t {
		w.next += w.interval
	}
}

// stackPass replays one tape at one block size and paging mode into
// every cache capacity and write policy of a sweep.
type stackPass struct {
	tape   *xfer.Tape
	r      *resolved
	bs     int64
	paging bool
	now    trace.Time

	// caps[b] is band b's share of slots. f threads the band lists;
	// band[id] is the block's band, len(bands) if it is in no cache.
	caps  []int
	bands []idList
	f     []frame
	band  []int32
	// entered[id*K+j] is when block id last entered cache j.
	entered []trace.Time
	// wb holds the write-back policies; byWrite is parallel to the
	// pass's write policies, nil for write-through.
	wb      []*writeBack
	byWrite []*writeBack

	accesses, reads, writes int64
	// fetches[b] counts fetching references found at band b (len(bands):
	// none); purged[b] purges there. evicted, residency and resOver are
	// per cache.
	fetches, purged, evicted []int64
	residency                []*stats.Histogram
	resOver                  []int64
	threshold                trace.Time
}

func newStackPass(tape *xfer.Tape, key Config, caps []int, specs []writeSpec) *stackPass {
	r := resolvedFor(tape, key.BlockSize)
	k, n := len(caps), r.nBlocks()
	s := &stackPass{
		tape: tape, r: r, bs: key.BlockSize, paging: key.SimulatePaging, threshold: key.ResidencyThreshold,
		caps: make([]int, k), bands: make([]idList, k), f: make([]frame, n),
		band: make([]int32, n), entered: make([]trace.Time, n*k),
		fetches: make([]int64, k+1), purged: make([]int64, k), evicted: make([]int64, k),
		residency: make([]*stats.Histogram, k), resOver: make([]int64, k),
	}
	for b, c := range caps {
		s.caps[b] = c
		if b > 0 {
			s.caps[b] -= caps[b-1]
		}
		s.residency[b] = residencyHistogram.Clone()
	}
	for id := range s.band {
		s.band[id] = int32(k)
	}
	s.byWrite = make([]*writeBack, len(specs))
	for i, sp := range specs {
		if sp.write == WriteThrough {
			continue
		}
		w := &writeBack{interval: sp.interval, next: math.MaxInt64, epoch: 1, marks: make([]dirtyMark, n),
			dirty: make([]int64, k), discarded: make([]int64, k), writes: make([]int64, k)}
		if sp.write == FlushBack {
			w.next = sp.interval
		}
		s.wb = append(s.wb, w)
		s.byWrite[i] = w
	}
	return s
}

func (s *stackPass) advance(t trace.Time) {
	for _, w := range s.wb {
		w.flush(t)
	}
	if t > s.now {
		s.now = t
	}
}

func (s *stackPass) recordResidency(j int, d trace.Time) {
	s.residency[j].Add(d.Seconds(), 1)
	if d > s.threshold {
		s.resOver[j]++
	}
}

// reference moves block id, found in band b (len(bands): in no cache),
// to the head of band 0 and cascades the overflow down.
func (s *stackPass) reference(id int32, b int) {
	k := len(s.bands)
	if b < k {
		s.bands[b].remove(s.f, id)
	}
	s.bands[0].pushFront(s.f, id)
	s.band[id] = 0
	base := int(id) * k
	for j := base; j < base+b; j++ {
		s.entered[j] = s.now
	}
	for j := 0; j < k && s.bands[j].n > s.caps[j]; j++ {
		v := s.bands[j].tail
		s.bands[j].remove(s.f, v)
		s.evicted[j]++
		s.recordResidency(j, s.now-s.entered[int(v)*k+j])
		for _, w := range s.wb {
			w.evict(v, j)
		}
		s.band[v] = int32(j + 1)
		if j+1 < k {
			s.bands[j+1].pushFront(s.f, v)
		}
	}
}

func (s *stackPass) transfer(xi int32) {
	t := &s.tape.Transfers[xi]
	s.advance(t.Time)
	ids := s.r.accessIDs[s.r.accessOff[xi]:s.r.accessOff[xi+1]]
	s.accesses += int64(len(ids))
	if t.Write {
		s.writes += int64(len(ids))
	} else {
		s.reads += int64(len(ids))
	}
	oldSize := s.tape.OldSizes[xi]
	for _, id := range ids {
		if b := int(s.band[id]); b == 0 {
			s.bands[0].moveToFront(s.f, id)
		} else {
			if needsFetch(t, s.r.blockIdx[id]*s.bs, s.bs, oldSize) {
				s.fetches[b]++
			}
			s.reference(id, b)
		}
		if t.Write {
			for _, w := range s.wb {
				w.write(id)
			}
		}
	}
}

func (s *stackPass) purge(fs int32, size int64) {
	if fs < 0 {
		return
	}
	k := len(s.bands)
	for _, id := range s.r.doomed(fs, size, s.bs) {
		b := int(s.band[id])
		if b == k {
			continue
		}
		s.bands[b].remove(s.f, id)
		s.band[id] = int32(k)
		s.purged[b]++
		for j := b; j < k; j++ {
			s.recordResidency(j, s.now-s.entered[int(id)*k+j])
		}
		for _, w := range s.wb {
			w.purge(id)
		}
	}
}

func (s *stackPass) run() {
	ops := s.tape.Ops
	for i := range ops {
		op := &ops[i]
		s.advance(op.Time)
		switch op.Kind {
		case xfer.OpPurge:
			s.purge(s.r.opFile[i], op.Size)
		case xfer.OpTransfer:
			s.transfer(op.Xfer)
		case xfer.OpExec:
			if s.paging {
				s.transfer(op.Xfer)
			}
		}
	}
	k := len(s.bands)
	for id, b := range s.band {
		for j := int(b); j < k; j++ {
			s.recordResidency(j, s.now-s.entered[id*k+j])
		}
	}
}

// result returns the Result of cfg, which is cache j under write-back
// policy wb, or under write-through if wb is nil.
func (s *stackPass) result(cfg Config, j int, wb *writeBack) *Result {
	res := &Result{
		Config: cfg, LogicalAccesses: s.accesses, ReadAccesses: s.reads, WriteAccesses: s.writes,
		Evictions: s.evicted[j], Residency: s.residency[j].CDF(),
	}
	for b := j + 1; b < len(s.fetches); b++ {
		res.DiskReads += s.fetches[b]
	}
	for b := 0; b <= j; b++ {
		res.Purged += s.purged[b]
		if wb != nil {
			res.DirtyDiscarded += wb.discarded[b]
			res.DirtyAtEnd += wb.dirty[b]
		}
	}
	if n := s.residency[j].Total(); n > 0 {
		res.ResidencyOver = float64(s.resOver[j]) / n
	}
	if wb != nil {
		res.DiskWrites = wb.writes[j]
	} else {
		res.DiskWrites = s.writes
	}
	return res
}

// lruSweep is MultiSimulate for configurations that are LRU with no
// ablation flag and may differ in block size, cache size, write policy
// and paging mode. It validates every configuration as MultiSimulate
// does before any work starts, then replays the tape once per block
// size, paging mode and residency threshold, spread over par.Run, each
// pass serving every cache size and write policy that shares them.
// Every result equals MultiSimulate's.
func lruSweep(tape *xfer.Tape, cfgs []Config) ([]*Result, error) {
	filled := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.fill(); err != nil {
			return nil, err
		}
		if cfg.Replacement != LRU || cfg.NoPurge || cfg.BillAtStart {
			panic("cachesim: lruSweep takes LRU configurations without ablation flags")
		}
		filled[i] = cfg
	}
	type pass struct {
		key   Config
		caps  []int
		specs []writeSpec
		cfgs  []int
	}
	var passes []*pass
	for i, cfg := range filled {
		key := Config{BlockSize: cfg.BlockSize, SimulatePaging: cfg.SimulatePaging, ResidencyThreshold: cfg.ResidencyThreshold}
		k := slices.IndexFunc(passes, func(p *pass) bool { return p.key == key })
		if k < 0 {
			k = len(passes)
			passes = append(passes, &pass{key: key})
		}
		p := passes[k]
		if c := cfg.capacity(); !slices.Contains(p.caps, c) {
			p.caps = append(p.caps, c)
		}
		if sp := (writeSpec{cfg.Write, cfg.FlushInterval}); !slices.Contains(p.specs, sp) {
			p.specs = append(p.specs, sp)
		}
		p.cfgs = append(p.cfgs, i)
	}
	out := make([]*Result, len(filled))
	par.Run(len(passes), func(i int) error {
		p := passes[i]
		slices.Sort(p.caps)
		s := newStackPass(tape, p.key, p.caps, p.specs)
		s.run()
		for _, ci := range p.cfgs {
			cfg := filled[ci]
			j, _ := slices.BinarySearch(p.caps, cfg.capacity())
			w := slices.Index(p.specs, writeSpec{cfg.Write, cfg.FlushInterval})
			out[ci] = s.result(cfg, j, s.byWrite[w])
		}
		return nil
	})
	return out, nil
}
