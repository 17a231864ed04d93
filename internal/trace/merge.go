package trace

import "io"

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
	head := func(l int) (Time, bool) {
		if heads[l] == len(lists[l]) {
			return 0, false
		}
		return at(&lists[l][heads[l]]), true
	}
	for {
		lead, runner, runnerT := pickLead(len(lists), head)
		if lead < 0 {
			return
		}
		xs, i := lists[lead], heads[lead]
		for ; i < len(xs) && leads(at(&xs[i]), lead, runner, runnerT); i++ {
			emit(lead, &xs[i])
		}
		heads[lead] = i
	}
}

// pickLead returns the stream with the earliest head among n streams,
// the runner-up and the runner-up's head time, ties going to the lower
// index; lead is -1 when no stream has a head, runner when fewer than
// two have. head reports stream i's head time, or false once stream i
// is exhausted.
func pickLead(n int, head func(i int) (Time, bool)) (lead, runner int, runnerT Time) {
	lead, runner = -1, -1
	var leadT Time
	for i := 0; i < n; i++ {
		t, ok := head(i)
		switch {
		case !ok:
		case lead < 0 || t < leadT:
			lead, leadT, runner, runnerT = i, t, lead, leadT
		case runner < 0 || t < runnerT:
			runner, runnerT = i, t
		}
	}
	return lead, runner, runnerT
}

// leads reports whether the lead stream, whose next head is at t, still
// goes before the runner-up in the (time, index) order.
func leads(t Time, lead, runner int, runnerT Time) bool {
	return runner < 0 || t < runnerT || (t == runnerT && lead < runner)
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
	n      int
	items  []mergeItem // the live sources, in source order
	primed bool
	err    error
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
		m.items = append(m.items, mergeItem{in: NewCursor(src), source: s})
	}
	return m
}

// NextBatch drains the lead source while it stays ahead of the
// runner-up, remapping as it copies, and picks the lead again only when
// the lead falls behind or ends. So merging k ordered streams costs one
// comparison per event plus k per switch between sources, and runs of
// consecutive events from one source — the common case for
// coarse-grained shard interleavings — cost no more than a copy.
func (m *MergeSource) NextBatch(buf []Event) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	if !m.primed {
		if err := m.prime(); err != nil {
			return 0, err
		}
	}
	n := 0
	for n < len(buf) {
		lead, runner, runnerT := pickLead(len(m.items), m.head)
		if lead < 0 {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		it := &m.items[lead]
		for n < len(buf) {
			buf[n] = RemapIDs(it.head, m.n, it.source)
			n++
			e, err := it.in.Next()
			if err == io.EOF {
				m.items = append(m.items[:lead], m.items[lead+1:]...)
				break
			}
			if err != nil {
				// The lead's head went out above, so n > 0: the
				// error waits for the next call.
				m.err = err
				return n, nil
			}
			it.head = e
			if !leads(e.Time, lead, runner, runnerT) {
				break
			}
		}
	}
	return n, nil
}

func (m *MergeSource) head(i int) (Time, bool) { return m.items[i].head.Time, true }

// prime loads the first event of every source and drops the empty
// ones. It runs once, on the first pull.
func (m *MergeSource) prime() error {
	live := m.items[:0]
	for _, it := range m.items {
		e, err := it.in.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			m.err = err
			return err
		}
		it.head = e
		live = append(live, it)
	}
	m.items, m.primed = live, true
	return nil
}

// MergeProducers runs each producer on its own goroutine and merges
// their streams into sink through a MergeSource: in time order, ties in
// producer order, with RemapIDs' renaming. A producer writes its events
// through emit into a one-subscriber Fanout, so it runs at most the
// fan-out's channel depth ahead of the merge. On a nil return every
// producer has returned: a stream ends only when its producer does. On
// an error, the sink's or a producer's as the merge reaches it,
// MergeProducers returns at once and every other producer's emit
// returns ErrFanoutDone from its next batch on; a producer that runs on
// without emitting (a simulation does) finishes in the background.
func MergeProducers(sink func(Event) error, producers ...func(emit func(Event) error) error) error {
	subs := make([]Source, len(producers))
	for i, produce := range producers {
		f := NewFanout(1)
		sub := f.Source(0)
		defer sub.Cancel()
		subs[i] = sub
		go func() { f.Close(produce(f.Write)) }()
	}
	return Each(NewMergeSource(subs...), sink)
}
