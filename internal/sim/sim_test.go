package sim

import (
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
)

// pending counts the events waiting in the queue.
func pending(e *Engine) int { return len(e.queue) }

// At and Step are conveniences for the tests: programs schedule only
// relative times and advance the engine only through Run.

// At schedules fn to run at absolute virtual time t. A time in the past
// runs fn at the current time, as a negative delay does.
func (e *Engine) At(t trace.Time, fn func()) { e.After(t-e.now, fn) }

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.at
	it.r.Run()
	return true
}

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run(100)
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want deadline 100", e.Now())
	}
}

// TestStopEndsRun: a continuation that calls Stop is the last to run;
// the clock stays at its time, and a later Run runs nothing.
func TestStopEndsRun(t *testing.T) {
	e := New()
	var ran []trace.Time
	for _, at := range []trace.Time{10, 20, 20, 30} {
		at := at
		e.At(at, func() {
			ran = append(ran, at)
			if len(ran) == 2 {
				e.Stop()
			}
		})
	}
	e.Run(100)
	e.Run(200)
	if !reflect.DeepEqual(ran, []trace.Time{10, 20}) {
		t.Errorf("ran = %v", ran)
	}
	if e.Now() != 20 {
		t.Errorf("clock = %v, want 20", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterAndClockAdvance(t *testing.T) {
	e := New()
	var at trace.Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run(1000)
	if at != 150 {
		t.Errorf("nested After ran at %v, want 150", at)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := New()
	var ranAt trace.Time = -1
	e.At(100, func() {
		e.At(10, func() { ranAt = e.Now() }) // in the past
	})
	e.Run(200)
	if ranAt != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", ranAt)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := New()
	ran := false
	e.After(-5, func() { ran = true })
	e.Run(0)
	if !ran {
		t.Errorf("negative After never ran")
	}
}

func TestRunRespectsDeadline(t *testing.T) {
	e := New()
	var ran []trace.Time
	for _, at := range []trace.Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.Run(25)
	if !reflect.DeepEqual(ran, []trace.Time{10, 20}) {
		t.Errorf("ran = %v", ran)
	}
	if n := pending(e); n != 2 {
		t.Errorf("pending = %d, want 2", n)
	}
	// Deadline-exact events run.
	e.Run(30)
	if !reflect.DeepEqual(ran, []trace.Time{10, 20, 30}) {
		t.Errorf("ran = %v after second Run", ran)
	}
}

func TestStep(t *testing.T) {
	e := New()
	if e.Step() {
		t.Errorf("Step on empty queue returned true")
	}
	n := 0
	e.At(5, func() { n++ })
	if !e.Step() || n != 1 || e.Now() != 5 {
		t.Errorf("Step did not run event: n=%d now=%v", n, e.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	count := 0
	e.Every(100, 50, func() bool {
		count++
		return count < 4
	})
	e.Run(10000)
	if count != 4 {
		t.Errorf("Every ran %d times, want 4", count)
	}
	if pending(e) != 0 {
		t.Errorf("Every left events pending")
	}
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	New().Every(0, 0, func() bool { return false })
}

type countRunner struct{ n int }

func (c *countRunner) Run() { c.n++ }

// A warm engine schedules and runs a pooled continuation without
// allocating; so does a closure that already exists.
func TestScheduleAndStepAllocateNothing(t *testing.T) {
	e := New()
	r := &countRunner{}
	fn := func() { r.n++ }
	cycle := func() {
		e.AfterRunner(3, r)
		e.AfterRunner(10*trace.Second, r)
		e.After(5, fn)
		for e.Step() {
		}
	}
	cycle() // grow the queue once
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("schedule and step allocate %.1f objects per cycle, want 0", avg)
	}
	// The first cycle, AllocsPerRun's own warm-up run, then 100 runs.
	if want := 3 * 102; r.n != want {
		t.Errorf("ran %d continuations, want %d", r.n, want)
	}
}
