package trace

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMergeEmpty(t *testing.T) {
	if got := mergeEvents(); got != nil {
		t.Errorf("mergeEvents() = %v", got)
	}
	if got := mergeEvents(nil, nil); len(got) != 0 {
		t.Errorf("mergeEvents(nil, nil) = %v", got)
	}
}

func TestMergeOrderAndRemap(t *testing.T) {
	a := []Event{
		{Time: 10, Kind: KindOpen, OpenID: 1, File: 5, User: 2, Mode: ReadOnly, Size: 100},
		{Time: 30, Kind: KindClose, OpenID: 1, NewPos: 100},
	}
	b := []Event{
		{Time: 20, Kind: KindOpen, OpenID: 1, File: 5, User: 2, Mode: WriteOnly},
		{Time: 40, Kind: KindClose, OpenID: 1, NewPos: 50},
	}
	got := mergeEvents(a, b)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	times := []Time{got[0].Time, got[1].Time, got[2].Time, got[3].Time}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Errorf("merged times not sorted: %v", times)
	}
	// Open ids and file ids from different sources must differ even
	// though the originals were equal.
	if got[0].OpenID == got[1].OpenID {
		t.Errorf("open ids collide after merge")
	}
	if got[0].File == got[1].File {
		t.Errorf("file ids collide after merge")
	}
	if got[0].User == got[1].User {
		t.Errorf("user ids collide after merge")
	}
	// The close events pair with their remapped opens.
	if got[2].OpenID != got[0].OpenID || got[3].OpenID != got[1].OpenID {
		t.Errorf("close events lost their opens: %+v", got)
	}
}

func TestMergedTraceValidates(t *testing.T) {
	a := randomValidTrace(1)
	b := randomValidTrace(2)
	c := randomValidTrace(3)
	merged := mergeEvents(a, b, c)
	if len(merged) != len(a)+len(b)+len(c) {
		t.Fatalf("merged length %d != %d", len(merged), len(a)+len(b)+len(c))
	}
	errs, _ := validate(merged)
	for _, err := range errs {
		t.Errorf("validator: %v", err)
	}
}

// randomValidTrace builds a small structurally valid trace: open/close
// pairs with occasional seeks and unlinks.
func randomValidTrace(seed int64) []Event {
	var events []Event
	tm := Time(seed * 7)
	openID := OpenID(1)
	for i := 0; i < 50; i++ {
		f := FileID(i%7 + 1)
		size := int64(i * 100)
		events = append(events, Event{Time: tm, Kind: KindOpen, OpenID: openID, File: f, User: UserID(seed), Mode: ReadOnly, Size: size})
		tm += Time(10 + seed)
		if i%3 == 0 {
			events = append(events, Event{Time: tm, Kind: KindSeek, OpenID: openID, OldPos: 0, NewPos: size / 2})
			tm += 5
		}
		events = append(events, Event{Time: tm, Kind: KindClose, OpenID: openID, NewPos: size})
		tm += Time(20 + seed*3)
		openID++
		if i%10 == 9 {
			events = append(events, Event{Time: tm, Kind: KindUnlink, File: f})
			tm += 3
		}
	}
	return events
}

// Property: merging preserves every source event up to identifier
// remapping — counts by kind and total bytes-in-size fields survive.
func TestMergePreservesContent(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomValidTrace(seedA%50 + 1)
		b := randomValidTrace(seedB%50 + 1)
		merged := mergeEvents(a, b)
		var want, got Counts
		var wantSize, gotSize int64
		for _, e := range append(append([]Event{}, a...), b...) {
			want.Add(e)
			wantSize += e.Size
		}
		for _, e := range merged {
			got.Add(e)
			gotSize += e.Size
		}
		return want == got && wantSize == gotSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWindow(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: KindOpen, OpenID: 1, File: 1, Mode: ReadOnly, Size: 100},
		{Time: 50, Kind: KindSeek, OpenID: 1, OldPos: 0, NewPos: 10},
		{Time: 150, Kind: KindSeek, OpenID: 1, OldPos: 20, NewPos: 30}, // open outside window
		{Time: 160, Kind: KindClose, OpenID: 1, NewPos: 100},           // ditto
		{Time: 170, Kind: KindOpen, OpenID: 2, File: 2, Mode: ReadOnly, Size: 50},
		{Time: 180, Kind: KindClose, OpenID: 2, NewPos: 50},
		{Time: 250, Kind: KindUnlink, File: 2},
	}
	got := windowEvents(events, 100, 200)
	// The dangling seek/close of open 1 are dropped; open 2's pair stays
	// and is rebased.
	want := []Event{
		{Time: 70, Kind: KindOpen, OpenID: 2, File: 2, Mode: ReadOnly, Size: 50},
		{Time: 80, Kind: KindClose, OpenID: 2, NewPos: 50},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Window = %+v, want %+v", got, want)
	}
	// A window keeps standalone events.
	got = windowEvents(events, 200, 300)
	if len(got) != 1 || got[0].Kind != KindUnlink || got[0].Time != 50 {
		t.Fatalf("unlink window = %+v", got)
	}
	// Degenerate windows are empty.
	if windowEvents(events, 100, 100) != nil || windowEvents(events, 200, 100) != nil {
		t.Errorf("degenerate window not empty")
	}
}

func TestWindowedTraceValidates(t *testing.T) {
	full := randomValidTrace(4)
	mid := full[len(full)/2].Time
	win := windowEvents(full, mid, mid+10_000)
	errs, _ := validate(win)
	for _, err := range errs {
		t.Errorf("validator: %v", err)
	}
}

// within fails the test if f has not returned within a generous
// deadline.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestMergeProducers: the merged stream equals the merge oracle and
// every producer has returned by the time MergeProducers returns nil; a
// sink error comes back promptly and every producer's emit fails with
// ErrFanoutDone; a producer's error comes back as the merge's.
func TestMergeProducers(t *testing.T) {
	// emitUntil emits events 1 ms apart, n of them (n < 0: until emit
	// fails), records emit's error in *got and returns fail or emit's
	// error. It marks wg done on return.
	emitUntil := func(wg *sync.WaitGroup, n int, got *error, fail error) func(func(Event) error) error {
		wg.Add(1)
		return func(emit func(Event) error) error {
			defer wg.Done()
			for i := 0; i != n; i++ {
				if err := emit(Event{Time: Time(i), Kind: KindExec, File: 1, User: 1}); err != nil {
					*got = err
					return err
				}
			}
			return fail
		}
	}

	t.Run("clean", func(t *testing.T) {
		lists := [][]Event{randomValidTrace(1), randomValidTrace(2), nil, randomValidTrace(3)}
		var returned atomic.Int32
		producers := make([]func(func(Event) error) error, len(lists))
		for i, l := range lists {
			producers[i] = func(emit func(Event) error) error {
				defer returned.Add(1)
				for _, e := range l {
					if err := emit(e); err != nil {
						return err
					}
				}
				return nil
			}
		}
		var got []Event
		var err error
		within(t, "MergeProducers", func() {
			err = MergeProducers(func(e Event) error { got = append(got, e); return nil }, producers...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := returned.Load(); n != int32(len(lists)) {
			t.Errorf("%d of %d producers had returned", n, len(lists))
		}
		if want := MergeOracle(lists...); !reflect.DeepEqual(got, want) {
			t.Errorf("merged %d events, want the oracle's %d", len(got), len(want))
		}
	})

	t.Run("sink-error", func(t *testing.T) {
		stop := errors.New("sink full")
		var wg sync.WaitGroup
		emitted := make([]error, 3)
		n := 0
		sink := func(Event) error {
			if n++; n == 5000 {
				return stop
			}
			return nil
		}
		var err error
		within(t, "MergeProducers", func() {
			err = MergeProducers(sink, emitUntil(&wg, -1, &emitted[0], nil),
				emitUntil(&wg, -1, &emitted[1], nil), emitUntil(&wg, -1, &emitted[2], nil))
		})
		if !errors.Is(err, stop) {
			t.Fatalf("err = %v, want the sink's", err)
		}
		within(t, "the producers", wg.Wait)
		for i, e := range emitted {
			if !errors.Is(e, ErrFanoutDone) {
				t.Errorf("producer %d: emit returned %v, want ErrFanoutDone", i, e)
			}
		}
	})

	t.Run("producer-error", func(t *testing.T) {
		boom := errors.New("generation failed")
		var wg sync.WaitGroup
		emitted := make([]error, 3)
		var err error
		within(t, "MergeProducers", func() {
			err = MergeProducers(func(Event) error { return nil }, emitUntil(&wg, -1, &emitted[0], nil),
				emitUntil(&wg, 3000, &emitted[1], boom), emitUntil(&wg, -1, &emitted[2], nil))
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the producer's", err)
		}
		within(t, "the producers", wg.Wait)
		if !errors.Is(emitted[0], ErrFanoutDone) || !errors.Is(emitted[2], ErrFanoutDone) {
			t.Errorf("the other producers' emit returned %v and %v, want ErrFanoutDone", emitted[0], emitted[2])
		}
	})
}
