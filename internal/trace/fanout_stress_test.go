package trace

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// These are white-box tests: the cancel-during-flush race is about the
// internal sharedBatch refcount, so they reach into the unexported
// state to stage the exact interleaving and to observe the reclaim.

func stressEvent(i int) Event {
	return Event{Time: Time(i), Kind: KindOpen, OpenID: OpenID(i + 1), File: FileID(i%10 + 1), User: 1}
}

// TestFanoutCancelSendRaceReclaimedByClose stages the lost race by
// hand: the producer polled the subscriber as live, the subscriber then
// canceled and ran its drain (finding nothing), and the producer's send
// landed anyway. The batch now sits in the channel of a consumer that
// will never read again; Close must hand it back to the pool.
func TestFanoutCancelSendRaceReclaimedByClose(t *testing.T) {
	f := NewFanout(1)
	s := f.Source(0)
	sb := &sharedBatch{events: GetBatch()[:1]}
	sb.refs.Store(1)
	s.once.Do(func() { close(s.cancel) }) // Cancel's close+drain already ran
	s.ch <- sb                            // the racing send wins
	f.Close(nil)
	if got := sb.refs.Load(); got != 0 {
		t.Fatalf("stranded batch refs = %d after Close, want 0", got)
	}
}

// TestFanoutCancelSendRaceReclaimedByFlush is the same staged race, but
// the producer keeps writing: the next flush must retire the canceled
// subscriber and reclaim the stranded batch rather than leaving it (and
// everything queued behind it) lost to the pool.
func TestFanoutCancelSendRaceReclaimedByFlush(t *testing.T) {
	f := NewFanout(2)
	quitter, stayer := f.Source(0), f.Source(1)
	sb := &sharedBatch{events: GetBatch()[:1]}
	sb.refs.Store(1)
	quitter.once.Do(func() { close(quitter.cancel) })
	quitter.ch <- sb

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer stayer.Cancel()
		for {
			if _, err := ReadOne(stayer); err != nil {
				return
			}
		}
	}()
	for i := 0; i < DefaultBatchSize; i++ { // exactly one flush
		if err := f.Write(stressEvent(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if got := sb.refs.Load(); got != 0 {
		t.Fatalf("stranded batch refs = %d after the next flush, want 0", got)
	}
	if !quitter.dead {
		t.Fatalf("canceled subscriber not retired by flush")
	}
	f.Close(nil)
	<-done
}

// TestFanoutSubscribeAfterClose: a late subscriber gets a terminated
// stream carrying the closing error instead of a hang.
func TestFanoutSubscribeAfterClose(t *testing.T) {
	f := NewFanout(0)
	f.Close(nil)
	s := f.Subscribe()
	if _, err := ReadOne(s); err != io.EOF {
		t.Fatalf("ReadOne on post-close subscriber = %v, want io.EOF", err)
	}
}

// TestFanoutSubscribeMidStream: a dynamic subscriber joins at a batch
// boundary and sees a contiguous suffix of the stream through EOF.
func TestFanoutSubscribeMidStream(t *testing.T) {
	// Much longer than the fanoutChanBuffer window, so the producer
	// cannot already have finished when the joiner subscribes.
	const total = 32 * DefaultBatchSize
	f := NewFanout(1)

	var wg sync.WaitGroup
	wg.Add(1)
	joined := make(chan *FanoutSub, 1)
	go func() { // anchor consumer; subscribes the joiner partway in
		defer wg.Done()
		src := f.Source(0)
		defer src.Cancel()
		n := 0
		for {
			if _, err := ReadOne(src); err != nil {
				return
			}
			if n++; n == 3*DefaultBatchSize {
				joined <- f.Subscribe()
			}
		}
	}()

	var late []Event
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := <-joined
		defer src.Cancel()
		for {
			e, err := ReadOne(src)
			if err != nil {
				return
			}
			late = append(late, e)
		}
	}()

	for i := 0; i < total; i++ {
		if err := f.Write(stressEvent(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	f.Close(nil)
	wg.Wait()

	if len(late) == 0 || len(late)%DefaultBatchSize != 0 {
		t.Fatalf("late subscriber got %d events, want a positive multiple of %d", len(late), DefaultBatchSize)
	}
	first := total - len(late)
	for i, e := range late {
		if want := stressEvent(first + i); e != want {
			t.Fatalf("late event %d = %+v, want %+v", i, e, want)
		}
	}
}

// TestFanoutDynamicChurnStress hammers the cancel-during-flush window:
// one producer streams while subscribers join and cancel continuously,
// many canceling the instant they subscribe so the producer's poll,
// the consumer's drain, and the racing send interleave every way the
// scheduler allows. Run under -race this is the memory-model check on
// the retire path; the over-release panic in sharedBatch.release is the
// refcount check. Stayers verify content integrity end to end.
func TestFanoutDynamicChurnStress(t *testing.T) {
	const total = 64 * DefaultBatchSize
	f := NewFanout(1)

	var wg sync.WaitGroup
	var churners sync.WaitGroup
	var seen atomic.Int64

	// Anchor: keeps the stream alive so ErrFanoutDone never fires.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := f.Source(0)
		defer src.Cancel()
		n := 0
		for {
			e, err := ReadOne(src)
			if err != nil {
				if err != io.EOF {
					t.Errorf("anchor ended with %v, want io.EOF", err)
				}
				if n != total {
					t.Errorf("anchor got %d events, want %d", n, total)
				}
				return
			}
			if int(e.Time) != n%total {
				// The anchor subscribed first, so it must see the exact stream.
				t.Errorf("anchor event %d has time %d", n, e.Time)
				return
			}
			n++
			seen.Add(1)
		}
	}()

	// Churners: subscribe mid-stream, read a few (often zero) events,
	// cancel, leave.
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		churners.Add(1)
		go func(g int) {
			defer churners.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := f.Subscribe()
				reads := rng.Intn(3 * DefaultBatchSize)
				if rng.Intn(4) == 0 {
					reads = 0 // cancel immediately: widest race window
				}
				for i := 0; i < reads; i++ {
					if _, err := ReadOne(src); err != nil {
						break
					}
				}
				src.Cancel()
			}
		}(g)
	}

	for i := 0; i < total; i++ {
		if err := f.Write(stressEvent(i % total)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	f.Close(nil)
	close(stop)
	churners.Wait()
	wg.Wait()
	if seen.Load() != total {
		t.Fatalf("anchor saw %d events, want %d", seen.Load(), total)
	}
}
