package trace_test

import (
	"errors"
	"io"
	"sync"
	"testing"

	"bsdtrace/internal/trace"
)

func fanoutEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{Time: trace.Time(i), Kind: trace.KindOpen,
			OpenID: trace.OpenID(i + 1), File: trace.FileID(i%10 + 1), User: 1}
	}
	return events
}

// produce writes events into f from the calling goroutine and closes
// it with err, tolerating ErrFanoutDone.
func produce(f *trace.Fanout, events []trace.Event, err error) {
	for _, e := range events {
		if werr := f.Write(e); werr != nil {
			f.Close(err)
			return
		}
	}
	f.Close(err)
}

// TestFanoutDeliversToAll: every subscriber sees the whole stream,
// concurrently, regardless of relative consumption speed or access
// path. Run with -race this is also the memory-model check on the
// shared batches.
func TestFanoutDeliversToAll(t *testing.T) {
	events := fanoutEvents(4*trace.DefaultBatchSize + 37)
	const subs = 4
	f := trace.NewFanout(subs)

	var wg sync.WaitGroup
	got := make([][]trace.Event, subs)
	errs := make([]error, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := f.Source(i)
			defer src.Cancel()
			buf := make([]trace.Event, 1+i*17) // different batch sizes per sub
			for {
				var n int
				var err error
				if i%2 == 0 {
					var e trace.Event
					e, err = trace.ReadOne(src)
					if err == nil {
						got[i] = append(got[i], e)
						continue
					}
				} else {
					n, err = src.NextBatch(buf)
					if n > 0 {
						got[i] = append(got[i], buf[:n]...)
						continue
					}
				}
				errs[i] = err
				return
			}
		}(i)
	}
	produce(f, events, nil)
	wg.Wait()

	for i := 0; i < subs; i++ {
		if errs[i] != io.EOF {
			t.Fatalf("sub %d ended with %v, want io.EOF", i, errs[i])
		}
		if len(got[i]) != len(events) {
			t.Fatalf("sub %d got %d events, want %d", i, len(got[i]), len(events))
		}
		for j := range events {
			if got[i][j] != events[j] {
				t.Fatalf("sub %d event %d = %+v, want %+v", i, j, got[i][j], events[j])
			}
		}
	}
}

// TestFanoutCancelMidStream: one subscriber bailing early must not
// disturb the others or wedge the producer.
func TestFanoutCancelMidStream(t *testing.T) {
	events := fanoutEvents(6 * trace.DefaultBatchSize)
	f := trace.NewFanout(2)

	var wg sync.WaitGroup
	var full int
	wg.Add(2)
	go func() { // quitter: a few events then cancel
		defer wg.Done()
		src := f.Source(0)
		for i := 0; i < 3; i++ {
			if _, err := trace.ReadOne(src); err != nil {
				t.Errorf("quitter ReadOne: %v", err)
				return
			}
		}
		src.Cancel()
	}()
	go func() { // stayer: drains everything
		defer wg.Done()
		src := f.Source(1)
		defer src.Cancel()
		for {
			if _, err := trace.ReadOne(src); err != nil {
				if err != io.EOF {
					t.Errorf("stayer ended with %v, want io.EOF", err)
				}
				return
			}
			full++
		}
	}()
	produce(f, events, nil)
	wg.Wait()
	if full != len(events) {
		t.Fatalf("surviving subscriber got %d events, want %d", full, len(events))
	}
}

// TestFanoutAllCanceled: once every subscriber cancels, Write reports
// ErrFanoutDone so the producer can stop generating.
func TestFanoutAllCanceled(t *testing.T) {
	f := trace.NewFanout(2)
	f.Source(0).Cancel()
	f.Source(1).Cancel()
	var last error
	for i := 0; i < 2*trace.DefaultBatchSize && last == nil; i++ {
		last = f.Write(trace.Event{Time: trace.Time(i), Kind: trace.KindOpen, OpenID: 1, File: 1})
	}
	if !errors.Is(last, trace.ErrFanoutDone) {
		t.Fatalf("Write after all cancels = %v, want ErrFanoutDone", last)
	}
	f.Close(nil)
}

// TestFanoutErrorPropagates: a producer failure surfaces as each
// subscriber's terminal error, after all complete batches deliver.
func TestFanoutErrorPropagates(t *testing.T) {
	events := fanoutEvents(trace.DefaultBatchSize + 5)
	boom := errors.New("generator failed")
	f := trace.NewFanout(2)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := f.Source(i)
			defer src.Cancel()
			n := 0
			for {
				_, err := trace.ReadOne(src)
				if err != nil {
					if err != boom {
						t.Errorf("sub %d terminal error = %v, want %v", i, err, boom)
					}
					if n != len(events) {
						t.Errorf("sub %d got %d events before the error, want %d", i, n, len(events))
					}
					return
				}
				n++
			}
		}(i)
	}
	produce(f, events, boom)
	wg.Wait()
}
