package sim

import (
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
)

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
	if len(e.queue) != 2 {
		t.Errorf("pending = %d, want 2", len(e.queue))
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
	if len(e.queue) != 0 {
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
