package sim

import (
	"sort"
	"testing"

	"bsdtrace/internal/trace"
)

// The order oracle: a script of At, After, Step and Run calls drives the
// engine and a reference queue that keeps its events in a plain list and
// sorts it by (time, seq) before each pop. Both record which event ran
// at what time; the records, the clock and the pending count must agree
// after every call.

// orderScript reads the fuzz input as a sequence of calls.
type orderScript struct {
	data []byte
}

func (s *orderScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// spec is what an event does when it runs: schedule up to depth more
// events, each delay after the current time (a chain, like a daemon).
type spec struct {
	delay trace.Time
	depth int
}

type ranRec struct {
	id int
	at trace.Time
}

// callState is the state a call leaves behind.
type callState struct {
	pending int
	now     trace.Time
}

// queueModel is what the script drives: the engine or the reference.
type queueModel interface {
	now() trace.Time
	at(t trace.Time, id int, sp spec)
	after(d trace.Time, id int, sp spec)
	step() bool
	run(until trace.Time)
	pending() int
	log() []ranRec
}

// delayFor decodes a delay relative to now from two script bytes. The
// classes cover the past, ties on the current time, short delays, times
// a fixed span after the last event run (so that events scheduled from
// different times collide), and far ahead.
func delayFor(kind, v byte, now, lastRun trace.Time) trace.Time {
	switch kind % 6 {
	case 0:
		return -trace.Time(v) - 1 // the past
	case 1:
		return 0 // a tie on the current time
	case 2:
		return trace.Time(v%255) + 1 // a few milliseconds ahead
	case 3:
		// Just before, at and just after a fixed span from the last
		// event run, wherever the clock now is.
		return lastRun + 254 + trace.Time(v%4) - now
	case 4:
		return 256 + trace.Time(v)*997 // seconds ahead
	default:
		return trace.Time(v) * trace.Hour / 16 // hours ahead
	}
}

// runScript drives m through the script and returns the state after
// each call.
func runScript(data []byte, m queueModel) []callState {
	s := &orderScript{data: data}
	var trail []callState
	id := 0
	lastRun := func() trace.Time {
		if l := m.log(); len(l) > 0 {
			return l[len(l)-1].at
		}
		return 0
	}
	for calls := 0; len(s.data) > 0 && calls < 256; calls++ {
		op, kind, v, child := s.byte(), s.byte(), s.byte(), s.byte()
		d := delayFor(kind, v, m.now(), lastRun())
		sp := spec{delay: delayFor(child>>2, child, m.now(), lastRun()), depth: int(child & 3)}
		switch op % 4 {
		case 0:
			m.at(m.now()+d, id, sp)
			id++
		case 1:
			m.after(d, id, sp)
			id++
		case 2:
			m.step()
		case 3:
			m.run(m.now() + d)
		}
		trail = append(trail, callState{m.pending(), m.now()})
	}
	m.run(m.now() + 24*trace.Hour*trace.Time(1+len(data)))
	trail = append(trail, callState{m.pending(), m.now()})
	return trail
}

// engineModel drives the real engine and checks Run's deadline from
// inside every event it runs.
type engineModel struct {
	t        *testing.T
	e        *Engine
	ran      []ranRec
	nextID   int
	deadline trace.Time
}

func (m *engineModel) now() trace.Time { return m.e.Now() }

func (m *engineModel) event(id int, sp spec) func() {
	return func() {
		now := m.e.Now()
		if now > m.deadline {
			m.t.Fatalf("event %d ran at %v, past the deadline %v", id, now, m.deadline)
		}
		m.ran = append(m.ran, ranRec{id: id, at: now})
		if sp.depth > 0 {
			m.nextID++
			m.e.After(sp.delay, m.event(-m.nextID, spec{sp.delay, sp.depth - 1}))
		}
	}
}

func (m *engineModel) at(t trace.Time, id int, sp spec)    { m.e.At(t, m.event(id, sp)) }
func (m *engineModel) after(d trace.Time, id int, sp spec) { m.e.After(d, m.event(id, sp)) }
func (m *engineModel) step() bool {
	m.deadline = trace.Time(1<<63 - 1)
	return m.e.Step()
}

// run checks that the clock ends at the deadline, or stays where it was
// if the deadline is already past.
func (m *engineModel) run(until trace.Time) {
	prev := m.e.Now()
	m.deadline = until
	m.e.Run(until)
	if want := max(prev, until); m.e.Now() != want {
		m.t.Fatalf("Run(%v) from %v left the clock at %v, want %v", until, prev, m.e.Now(), want)
	}
}
func (m *engineModel) pending() int  { return pending(m.e) }
func (m *engineModel) log() []ranRec { return m.ran }

// refModel is the sort-based reference queue.
type refModel struct {
	clock  trace.Time
	seq    uint64
	queue  []refEvent
	ran    []ranRec
	nextID int
}

type refEvent struct {
	at  trace.Time
	seq uint64
	id  int
	sp  spec
}

func (m *refModel) now() trace.Time { return m.clock }
func (m *refModel) at(t trace.Time, id int, sp spec) {
	if t < m.clock {
		t = m.clock
	}
	m.queue = append(m.queue, refEvent{at: t, seq: m.seq, id: id, sp: sp})
	m.seq++
}
func (m *refModel) after(d trace.Time, id int, sp spec) {
	if d < 0 {
		d = 0
	}
	m.at(m.clock+d, id, sp)
}
func (m *refModel) sorted() {
	sort.Slice(m.queue, func(i, j int) bool {
		a, b := m.queue[i], m.queue[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}
func (m *refModel) step() bool {
	if len(m.queue) == 0 {
		return false
	}
	m.sorted()
	ev := m.queue[0]
	m.queue = m.queue[1:]
	m.clock = ev.at
	m.ran = append(m.ran, ranRec{id: ev.id, at: ev.at})
	if ev.sp.depth > 0 {
		m.nextID++
		m.after(ev.sp.delay, -m.nextID, spec{ev.sp.delay, ev.sp.depth - 1})
	}
	return true
}
func (m *refModel) run(until trace.Time) {
	for {
		m.sorted()
		if len(m.queue) == 0 || m.queue[0].at > until {
			break
		}
		m.step()
	}
	if m.clock < until {
		m.clock = until
	}
}
func (m *refModel) pending() int  { return len(m.queue) }
func (m *refModel) log() []ranRec { return m.ran }

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 3, 0, 0, 0, 3, 1, 0, 0, 3, 2, 0, 0, 3, 3, 0, 3, 2, 50, 0})
	f.Add([]byte{1, 4, 9, 0x27, 1, 5, 3, 0x13, 0, 0, 7, 0x0b, 3, 2, 200, 0, 2, 0, 0, 0, 3, 4, 255, 0})
	f.Add([]byte{0, 2, 255, 0x0f, 0, 1, 0, 0x07, 2, 0, 0, 0, 0, 3, 2, 0, 0, 3, 3, 0, 2, 0, 0, 0, 3, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		em := &engineModel{t: t, e: New(), deadline: trace.Time(1<<63 - 1)}
		rm := &refModel{}
		got := runScript(data, em)
		want := runScript(data, rm)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after call %d: engine has %d pending at %v, reference %d at %v",
					i, got[i].pending, got[i].now, want[i].pending, want[i].now)
			}
		}
		if len(em.ran) != len(rm.ran) {
			t.Fatalf("engine ran %d events, reference %d", len(em.ran), len(rm.ran))
		}
		for i := range rm.ran {
			if em.ran[i] != rm.ran[i] {
				t.Fatalf("run %d: engine ran event %d at %v, reference event %d at %v",
					i, em.ran[i].id, em.ran[i].at, rm.ran[i].id, rm.ran[i].at)
			}
		}
	})
}
