package trace

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// Fanout is the generate-once tee: one producer pushes an event stream
// in, and every subscriber reads the whole stream as its own Source,
// concurrently, through a bounded channel of shared event batches. The
// producer never materializes the stream and never re-generates it —
// each batch is refcounted across the subscribers and returned to the
// batch pool when the last one releases it.
//
// Subscribers may be fixed up front (NewFanout(n) + Source(i)) or added
// while the producer is running (Subscribe); a dynamic subscriber joins
// at the next batch boundary and sees the stream from there on. A
// subscriber that cancels is retired by the producer: its channel is
// drained, every stranded batch is released back to the pool, and it is
// removed from the live set.
//
// Memory is bounded at O(subscribers * fanoutChanBuffer * batch), so a
// slow subscriber throttles the producer instead of growing a queue.
// Every subscriber must therefore be drained by its own goroutine (or
// canceled); two subscribers consumed sequentially from one goroutine
// deadlock by construction.
type Fanout struct {
	// mu guards subs, closed, and err. The producer-side batch buffer
	// and each subscriber's dead flag are touched only by the producer
	// goroutine and need no lock.
	mu      sync.Mutex
	subs    []*FanoutSub
	closed  bool
	err     error
	initial []*FanoutSub // NewFanout's subscribers, for Source(i)
	scratch []*FanoutSub // reused per-flush snapshot buffer
	buf     []Event
}

// fanoutChanBuffer is each subscriber's channel capacity in batches:
// enough slack that subscribers at slightly different speeds do not
// convoy, and that a merge of concurrent producers (MergeProducers)
// rarely waits on one of them, small enough that fan-out memory stays
// trivial.
const fanoutChanBuffer = 16

// ErrFanoutDone is returned by Write once every subscriber has
// canceled: nothing is listening, so the producer may stop early.
var ErrFanoutDone = errors.New("trace: all fanout subscribers canceled")

// sharedBatch is one refcounted slice of events shared read-only by all
// subscribers it was sent to.
type sharedBatch struct {
	events []Event
	refs   atomic.Int32
}

func (b *sharedBatch) release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		PutBatch(b.events[:cap(b.events)])
	case n < 0:
		// A batch released more times than it had references would put
		// the same slice in the pool twice and corrupt whoever draws it
		// next; fail loudly here, where the bug is, not there.
		panic("trace: fanout batch over-released")
	}
}

// NewFanout creates a tee with n subscribers, Source(0) through
// Source(n-1).
func NewFanout(n int) *Fanout {
	f := &Fanout{}
	for i := 0; i < n; i++ {
		f.initial = append(f.initial, f.Subscribe())
	}
	return f
}

// Source returns subscriber i's end of the tee, counting the
// subscribers NewFanout created (dynamic subscribers are addressed by
// the *FanoutSub that Subscribe returned).
func (f *Fanout) Source(i int) *FanoutSub { return f.initial[i] }

// Subscribe adds a subscriber. Called before the first Write it sees
// the whole stream; called while the producer is running it joins at
// the next batch boundary; called after Close it returns an already
// terminated subscriber whose NextBatch returns the closing error
// (io.EOF for a clean close). Subscribe is safe to call from any
// goroutine.
func (f *Fanout) Subscribe() *FanoutSub {
	s := &FanoutSub{
		ch:     make(chan *sharedBatch, fanoutChanBuffer),
		cancel: make(chan struct{}),
	}
	f.mu.Lock()
	if f.closed {
		s.err = f.err
		close(s.ch)
	} else {
		f.subs = append(f.subs, s)
	}
	f.mu.Unlock()
	return s
}

// snapshot copies the live subscriber set into the reused scratch
// buffer. Only the producer calls it, so the buffer is never shared.
func (f *Fanout) snapshot() []*FanoutSub {
	f.mu.Lock()
	f.scratch = append(f.scratch[:0], f.subs...)
	f.mu.Unlock()
	return f.scratch
}

// retire marks s dead, releases every batch stranded in its channel,
// and removes it from the live set. Only the producer calls retire, and
// the producer never sends to a dead subscriber again, so the channel
// can only shrink here. The consumer's own Cancel drain may be
// receiving concurrently; each stranded batch is received — and
// released — by exactly one side. This is the fix for the old
// cancel-during-flush race, where a send that won the select against a
// subscriber whose Cancel drain had already run left the batch in the
// channel with its references forever unreleased.
func (f *Fanout) retire(s *FanoutSub) {
	s.dead = true
	for {
		select {
		case sb, ok := <-s.ch:
			if !ok {
				return
			}
			sb.release()
		default:
			f.mu.Lock()
			for i, x := range f.subs {
				if x == s {
					f.subs = append(f.subs[:i], f.subs[i+1:]...)
					break
				}
			}
			f.mu.Unlock()
			return
		}
	}
}

// Write pushes one event to every live subscriber, batching internally.
// It is shaped to be a workload sink (func(Event) error). Write blocks
// when a subscriber's channel is full; it returns ErrFanoutDone once
// every subscriber has canceled.
func (f *Fanout) Write(e Event) error {
	if f.buf == nil {
		f.buf = GetBatch()[:0]
	}
	f.buf = append(f.buf, e)
	if len(f.buf) == cap(f.buf) {
		return f.flush()
	}
	return nil
}

// flush shares the pending batch out to the live subscribers.
func (f *Fanout) flush() error {
	if len(f.buf) == 0 {
		return nil
	}
	sb := &sharedBatch{events: f.buf}
	f.buf = nil
	subs := f.snapshot()
	live := 0
	for _, s := range subs {
		// Poll cancel before counting: a send and a closed cancel are
		// both ready in the select below, so without this check a
		// canceled subscriber with channel space would keep receiving.
		select {
		case <-s.cancel:
			f.retire(s)
		default:
			live++
		}
	}
	if live == 0 {
		PutBatch(sb.events[:cap(sb.events)])
		return ErrFanoutDone
	}
	sb.refs.Store(int32(live))
	for _, s := range subs {
		if s.dead {
			continue
		}
		select {
		case s.ch <- sb:
		case <-s.cancel:
			sb.release()
			f.retire(s)
		}
	}
	return nil
}

// Close flushes the final partial batch and ends every subscriber's
// stream: with a nil err subscribers see io.EOF, otherwise they see
// err. Close must be called exactly once, after the last Write, from
// the producer goroutine.
func (f *Fanout) Close(err error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	if ferr := f.flush(); ferr != nil && err == nil && ferr != ErrFanoutDone {
		err = ferr
	}
	f.mu.Lock()
	f.closed = true
	f.err = err
	subs := append([]*FanoutSub(nil), f.subs...)
	f.subs = nil
	f.mu.Unlock()
	for _, s := range subs {
		// A subscriber that canceled after the last flush polled it may
		// still hold batches a racing send left behind; reclaim them
		// before ending its stream.
		select {
		case <-s.cancel:
			f.retire(s)
		default:
		}
		s.err = err
		close(s.ch)
	}
}

// FanoutSub is one subscriber's Source over the shared stream. It is
// owned by a single consumer goroutine.
type FanoutSub struct {
	ch     chan *sharedBatch
	cancel chan struct{}
	err    error // terminal error, readable after ch closes
	dead   bool  // producer-side: subscriber canceled and retired

	once sync.Once
	cur  *sharedBatch
	pos  int
}

// fill advances to the next shared batch, releasing the current one.
// It returns false at end of stream.
func (s *FanoutSub) fill() bool {
	if s.cur != nil {
		s.cur.release()
		s.cur, s.pos = nil, 0
	}
	sb, ok := <-s.ch
	if !ok {
		return false
	}
	s.cur = sb
	return true
}

// NextBatch copies the pending events of the current shared batch.
func (s *FanoutSub) NextBatch(buf []Event) (int, error) {
	if len(buf) == 0 {
		return 0, nil // a zero-length buffer is a no-op read
	}
	for s.cur == nil || s.pos >= len(s.cur.events) {
		if !s.fill() {
			if s.err != nil {
				return 0, s.err
			}
			return 0, io.EOF
		}
	}
	n := copy(buf, s.cur.events[s.pos:])
	s.pos += n
	return n, nil
}

// Cancel tells the producer this subscriber is done; the producer stops
// sending to it, drains anything already queued, and drops it from the
// live set. Safe to call more than once, and always safe to defer —
// canceling after a clean EOF is a no-op. Batches queued at cancel time
// are released here when possible; one that races a concurrent send is
// reclaimed by the producer when it next touches this subscriber
// (flush or Close), so no batch is ever stranded away from the pool.
func (s *FanoutSub) Cancel() {
	s.once.Do(func() { close(s.cancel) })
	if s.cur != nil {
		s.cur.release()
		s.cur, s.pos = nil, 0
	}
	for {
		select {
		case sb, ok := <-s.ch:
			if !ok {
				return
			}
			sb.release()
		default:
			return
		}
	}
}
