// Package sim is the discrete-event engine that advances the simulated
// machine through virtual time. Workload actors schedule continuations at
// relative virtual times; the engine runs them in time order, breaking
// ties by scheduling order so that a given seed always produces the same
// interleaving and therefore the same trace.
package sim

import (
	"bsdtrace/internal/trace"
)

// Runner is a scheduled continuation. Hot callers schedule pooled values
// that implement it; everything else schedules a closure through After.
type Runner interface{ Run() }

// funcRunner adapts a closure to Runner. A func value is a single
// pointer, so storing one in the interface allocates nothing.
type funcRunner func()

func (f funcRunner) Run() { f() }

// Engine is a single-goroutine discrete-event scheduler over virtual time.
type Engine struct {
	now     trace.Time
	queue   []scheduled
	seq     uint64
	stopped bool
}

type scheduled struct {
	at  trace.Time
	seq uint64
	r   Runner
}

// before is the queue's strict total order: time, then scheduling order.
// Keys are unique (seq never repeats), so the pop sequence is a pure
// function of the pushes regardless of the heap's internal layout.
func (a scheduled) before(b scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The queue is a hand-rolled 4-ary min-heap rather than container/heap:
// the stdlib interface boxes every element through `any` on Push and Pop,
// which at generation rates costs one allocation per scheduled event —
// the single largest allocation source in the whole pipeline before it
// was removed. The 4-way branching halves the tree depth of the pop-heavy
// workload (every simulated event is one push and one pop) and keeps
// sibling comparisons inside one cache line of the slice.

func (e *Engine) push(it scheduled) {
	q := append(e.queue, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

func (e *Engine) pop() scheduled {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = scheduled{} // release the continuation
	q = q[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	e.queue = q
	return top
}

// New creates an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() trace.Time { return e.now }

// AfterRunner schedules r to run d after the current time. Negative
// delays are clamped to zero: the clock never moves backwards.
func (e *Engine) AfterRunner(d trace.Time, r Runner) {
	if d < 0 {
		d = 0
	}
	e.push(scheduled{at: e.now + d, seq: e.seq, r: r})
	e.seq++
}

// After schedules fn to run d after the current time, like AfterRunner.
func (e *Engine) After(d trace.Time, fn func()) { e.AfterRunner(d, funcRunner(fn)) }

// Every schedules fn at now+d and then every interval thereafter, for as
// long as fn returns true. It is the engine's idiom for daemons (the
// network status daemons that rewrite their files every 180 seconds).
func (e *Engine) Every(d, interval trace.Time, fn func() bool) {
	if interval <= 0 {
		panic("sim: Every needs a positive interval")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(interval, tick)
		}
	}
	e.After(d, tick)
}

// Stop ends Run after the continuation that calls it returns: no later
// event runs, and the clock stays at the stopping event's time.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the queue is empty, the next event is after
// the deadline, or a continuation calls Stop. Events scheduled exactly at
// the deadline still run. Unless stopped, the clock finishes at the
// deadline, or where it was if the deadline is already past.
func (e *Engine) Run(until trace.Time) {
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= until {
		it := e.pop()
		e.now = it.at
		it.r.Run()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}
