package trace

import (
	"container/heap"
	"io"
)

// RemapIDs renames the identifiers of an event from source s of n merged
// sources so events from different sources can never collide: identifier
// i becomes i*n+s, which is collision-free and preserves uniqueness
// within each source. Users on different machines are distinct people and
// stay distinct. MergeSource applies exactly this remapping, and the
// sharded workload generator merges its shard streams through it, so a
// sharded fleet and a merged multi-machine trace follow one identifier
// contract.
func RemapIDs(e Event, n, s int) Event {
	if e.OpenID != 0 || e.Kind == KindCreate || e.Kind == KindOpen || e.Kind == KindClose || e.Kind == KindSeek {
		e.OpenID = e.OpenID*OpenID(n) + OpenID(s)
	}
	if e.File != 0 {
		e.File = e.File*FileID(n) + FileID(s)
	}
	e.User = e.User*UserID(n) + UserID(s)
	return e
}

// Interleave visits the elements of lists, each in nondecreasing time,
// in merged order: by time, ties broken in list order and then in order
// within a list. That is MergeSource's order, and the order a stable
// sort of the concatenated lists by time gives. It calls emit with each
// element and the index of its list. The list with the earliest head
// emits, with one comparison per element, while it stays ahead of the
// runner-up, so a switch between lists costs len(lists) comparisons.
func Interleave[T any](lists [][]T, at func(*T) Time, emit func(list int, v *T)) {
	heads := make([]int, len(lists))
	for {
		lead, runner := -1, -1
		var leadT, runnerT Time
		for l, xs := range lists {
			if heads[l] == len(xs) {
				continue
			}
			switch t := at(&xs[heads[l]]); {
			case lead < 0 || t < leadT:
				lead, leadT, runner, runnerT = l, t, lead, leadT
			case runner < 0 || t < runnerT:
				runner, runnerT = l, t
			}
		}
		if lead < 0 {
			return
		}
		xs, i := lists[lead], heads[lead]
		for ; i < len(xs); i++ {
			if runner >= 0 {
				if t := at(&xs[i]); t > runnerT || (t == runnerT && lead > runner) {
					break
				}
			}
			emit(lead, &xs[i])
		}
		heads[lead] = i
	}
}

// MergeSource interleaves several time-ordered Sources into one
// time-ordered stream with identifier remapping (see RemapIDs). It reads
// each live source through a Cursor — memory is one pooled batch per
// source, O(sources), not O(events) — which is what lets a fleet of
// generated shards or a set of on-disk machine traces merge without ever
// materializing.
//
// Each source must itself be in non-decreasing time order (as every trace
// this repository produces is); ties across sources preserve source
// order, so the merged order is a pure function of the source streams and
// never of scheduling.
type MergeSource struct {
	n       int
	pending []mergeItem // sources not yet loaded into the heap
	items   []mergeItem // min-heap on (head.Time, source index)
	err     error
}

type mergeItem struct {
	head   Event
	in     *Cursor
	source int
}

// NewMergeSource creates a merged stream over the sources. It models the
// scenario that motivated the paper: several machines' workloads
// converging on one shared file server.
func NewMergeSource(sources ...Source) *MergeSource {
	m := &MergeSource{n: len(sources)}
	for s, src := range sources {
		m.pending = append(m.pending, mergeItem{in: NewCursor(src), source: s})
	}
	return m
}

// NextBatch drains the minimum source while it stays the minimum,
// remapping as it copies. The heap is touched only when the lead source
// changes or ends, so merging k ordered streams costs far less than one
// sift per event when runs of consecutive events come from one source —
// exactly the common case for coarse-grained shard interleavings.
func (m *MergeSource) NextBatch(buf []Event) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	if m.pending != nil {
		if err := m.prime(); err != nil {
			return 0, err
		}
	}
	n := 0
	for n < len(buf) {
		if len(m.items) == 0 {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		it := &m.items[0]
		// The lead source may emit without re-heapifying while its head
		// stays ahead of the runner-up in the (time, source) order.
		runnerTime, runnerSource, haveRunner := m.runnerUp()
		for n < len(buf) {
			buf[n] = RemapIDs(it.head, m.n, it.source)
			n++
			e, err := it.in.Next()
			if err == io.EOF {
				m.popLead()
				break
			}
			if err != nil {
				// The lead's head went out above, so n > 0: the
				// error waits for the next call.
				m.err = err
				return n, nil
			}
			it.head = e
			if haveRunner && (e.Time > runnerTime || (e.Time == runnerTime && it.source > runnerSource)) {
				m.fixLead()
				break
			}
		}
	}
	return n, nil
}

// runnerUp returns the (time, source) key of the second-smallest heap
// item — the threshold the lead source must stay under to keep emitting
// without a sift.
func (m *MergeSource) runnerUp() (t Time, source int, ok bool) {
	switch len(m.items) {
	case 0, 1:
		return 0, 0, false
	case 2:
		return m.items[1].head.Time, m.items[1].source, true
	}
	i := 1
	if m.Less(2, 1) {
		i = 2
	}
	return m.items[i].head.Time, m.items[i].source, true
}

// prime loads the first event of every source into the heap. It runs
// once, on the first pull.
func (m *MergeSource) prime() error {
	for _, it := range m.pending {
		e, err := it.in.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			m.err = err
			return err
		}
		it.head = e
		m.items = append(m.items, it)
	}
	m.pending = nil
	heap.Init(m)
	return nil
}

// popLead removes the drained lead source; fixLead restores the heap
// after the lead's head advanced. popLead moves the last item to the
// root rather than calling heap.Pop, which would box the item.
func (m *MergeSource) popLead() {
	last := len(m.items) - 1
	m.items[0] = m.items[last]
	m.items = m.items[:last]
	if last > 0 {
		m.fixLead()
	}
}
func (m *MergeSource) fixLead() { heap.Fix(m, 0) }

func (m *MergeSource) Len() int { return len(m.items) }
func (m *MergeSource) Less(i, j int) bool {
	a, b := &m.items[i], &m.items[j]
	if a.head.Time != b.head.Time {
		return a.head.Time < b.head.Time
	}
	return a.source < b.source
}
func (m *MergeSource) Swap(i, j int) { m.items[i], m.items[j] = m.items[j], m.items[i] }
func (m *MergeSource) Push(x any)    { m.items = append(m.items, x.(mergeItem)) }
func (m *MergeSource) Pop() any {
	old := m.items
	it := old[len(old)-1]
	m.items = old[:len(old)-1]
	return it
}
