package trace

import (
	"cmp"
	"slices"
)

// Table holds one entry per identifier for the per-ID state of a stream
// analysis. A trace's file and user identifiers are nearly dense: files
// are i-node numbers, users count from 1, and RemapIDs keeps a merged
// fleet's identifiers dense. So an ID indexes an array, with no hashing,
// while the IDs the arrays cover stay within tableSlack times the
// entries stored (or under tableFloor); any other ID goes to a map. The
// arrays are fixed-size chunks, allocated where an entry lands, so
// growth copies nothing. When the arrays grow past IDs held in the map,
// those entries move into them, so no ID is ever in both and every ID
// in the map lies past the arrays. Sparse or hostile IDs therefore cost
// memory in proportion to the entries stored, never to the largest ID.
//
// A pointer returned by Get or Put is valid until the next Put or
// Delete. The zero Table is empty and ready to use.
type Table[K ~uint32 | ~uint64, V any] struct {
	chunks []*[tableChunk]tableSlot[V] // chunk i holds IDs i*tableChunk on
	// The map side: its entries in extra, in no order, each indexed by
	// its ID in sparse, so that it allocates no object per entry.
	sparse map[K]int
	extra  []tableEntry[K, V]
	low    K   // no ID in extra is below low
	n      int // entries stored
}

type tableSlot[V any] struct {
	v  V
	ok bool
}

type tableEntry[K, V any] struct {
	id K
	v  V
}

const (
	tableChunk = 1 << 9
	tableFloor = 1 << 10
	tableSlack = 8
)

// Len returns the number of entries stored.
func (t *Table[K, V]) Len() int { return t.n }

// covers reports whether id lies in the range of the arrays.
func (t *Table[K, V]) covers(id K) bool {
	return uint64(id)/tableChunk < uint64(len(t.chunks))
}

// slot returns id's slot in the arrays, which must cover it, allocating
// its chunk if need be.
func (t *Table[K, V]) slot(id K) *tableSlot[V] {
	c := &t.chunks[uint64(id)/tableChunk]
	if *c == nil {
		*c = new([tableChunk]tableSlot[V])
	}
	return &(*c)[id%tableChunk]
}

// Get returns id's entry, or nil if it has none.
func (t *Table[K, V]) Get(id K) *V {
	if t.covers(id) {
		if c := t.chunks[uint64(id)/tableChunk]; c != nil && c[id%tableChunk].ok {
			return &c[id%tableChunk].v
		}
		return nil
	}
	if i, ok := t.sparse[id]; ok {
		return &t.extra[i].v
	}
	return nil
}

// Put returns id's entry, adding a zero one if it has none.
func (t *Table[K, V]) Put(id K) *V {
	if !t.covers(id) {
		if i, ok := t.sparse[id]; ok {
			return &t.extra[i].v
		}
		if !t.grow(id) {
			if t.sparse == nil {
				t.sparse = make(map[K]int)
			}
			if len(t.extra) == 0 || id < t.low {
				t.low = id
			}
			t.sparse[id] = len(t.extra)
			t.extra = append(t.extra, tableEntry[K, V]{id: id})
			t.n++
			return &t.extra[len(t.extra)-1].v
		}
	}
	s := t.slot(id)
	if !s.ok {
		s.ok = true
		t.n++
	}
	return &s.v
}

// grow extends the arrays to cover id, a new entry's ID, if the density
// rule allows, and reports whether it did. When that reaches IDs in the
// map, it covers as much as the rule allows and moves every entry it
// covers out of the map, so that each pass over the map moves many.
func (t *Table[K, V]) grow(id K) bool {
	limit := max(tableFloor, tableSlack*uint64(t.n+1))
	if uint64(id) >= limit {
		return false
	}
	end := uint64(id)/tableChunk + 1
	migrate := len(t.extra) > 0 && uint64(t.low) < end*tableChunk
	if migrate {
		end = (limit-1)/tableChunk + 1
	}
	t.chunks = append(t.chunks, make([]*[tableChunk]tableSlot[V], end-uint64(len(t.chunks)))...)
	if !migrate {
		return true
	}
	kept := t.extra[:0]
	t.low = ^K(0)
	for _, e := range t.extra {
		if t.covers(e.id) {
			*t.slot(e.id) = tableSlot[V]{e.v, true}
			delete(t.sparse, e.id)
			continue
		}
		t.sparse[e.id] = len(kept)
		kept = append(kept, e)
		t.low = min(t.low, e.id)
	}
	clear(t.extra[len(kept):])
	t.extra = kept
	return true
}

// Delete removes id's entry, if it has one.
func (t *Table[K, V]) Delete(id K) {
	if t.covers(id) {
		if c := t.chunks[uint64(id)/tableChunk]; c != nil && c[id%tableChunk].ok {
			c[id%tableChunk] = tableSlot[V]{}
			t.n--
		}
		return
	}
	i, ok := t.sparse[id]
	if !ok {
		return
	}
	last := len(t.extra) - 1
	t.extra[i] = t.extra[last]
	t.sparse[t.extra[i].id] = i
	t.extra[last] = tableEntry[K, V]{}
	t.extra = t.extra[:last]
	delete(t.sparse, id)
	t.n--
}

// Each calls f with every entry, in ID order.
func (t *Table[K, V]) Each(f func(id K, v *V)) {
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		for i := range c {
			if c[i].ok {
				f(K(ci*tableChunk+i), &c[i].v)
			}
		}
	}
	order := make([]int, len(t.extra))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(t.extra[a].id, t.extra[b].id) })
	for _, i := range order {
		f(t.extra[i].id, &t.extra[i].v)
	}
}
