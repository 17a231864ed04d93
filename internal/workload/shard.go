package workload

import (
	"errors"
	"fmt"
	"io"

	"bsdtrace/internal/trace"
)

// Sharded generation: the scaled user population splits into disjoint
// sub-populations, each simulated as its own machine (own kernel, own
// file system, own daemons — a fleet), concurrently on all cores. The
// shard streams merge through trace.MergeSource into one time-ordered
// trace with the standard identifier remapping, so the merged fleet trace
// obeys the same contract as a multi-machine trace.Merge.
//
// Determinism contract: the merged stream is a pure function of (Config,
// Shards). Shard s seeds its random source from shardSeed(Seed, s), the
// merge orders events by (time, shard index), and the merge can only emit
// after it has the head event of every live shard — goroutine scheduling
// can change who waits for whom, never what comes out.

// shardChanBuffer is the per-shard channel capacity in event batches.
// Events cross the shard boundary trace.DefaultBatchSize at a time, so
// the per-event synchronization cost is one channel operation per batch
// — nothing — and the generator's memory stays bounded at
// O(Shards * shardChanBuffer * DefaultBatchSize) events while shard
// goroutines run ahead of the merge on other cores.
const shardChanBuffer = 16

// errAborted tells a shard goroutine the consumer stopped pulling.
var errAborted = errors.New("workload: generation aborted")

// shardSeed derives the random seed of shard s. Shard 0 keeps the
// configured seed, so a single-shard run is byte-identical to an unsharded
// one; the rest mix the shard index in with a splitmix64-style odd
// constant so sibling shards get decorrelated streams.
func shardSeed(seed int64, s int) int64 {
	if s == 0 {
		return seed
	}
	x := uint64(seed) + uint64(s)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// splitProfile deals prof's user classes across n shards: shard i gets
// count/n users of each class plus one of the remainder while it lasts.
// Every shard runs its own status daemons — each shard is one machine of
// the fleet, and the network status daemons run on every machine.
func splitProfile(prof Profile, n int) []Profile {
	share := func(count, i int) int {
		s := count / n
		if i < count%n {
			s++
		}
		return s
	}
	out := make([]Profile, n)
	for i := range out {
		p := prof
		p.Developers = share(prof.Developers, i)
		p.Office = share(prof.Office, i)
		p.CAD = share(prof.CAD, i)
		out[i] = p
	}
	return out
}

// shardStream is one shard's live output: a channel of pooled event
// batches plus the shard's Result and error, delivered after the channel
// closes.
type shardStream struct {
	ch   chan []trace.Event
	res  *Result
	err  error
	done chan struct{} // closed once res/err are set

	cur []trace.Event // batch being consumed
	pos int
}

// fill receives the next batch, returning false at end of stream (the
// shard's terminal error, if any, is in s.err after s.done closes).
func (s *shardStream) fill() bool {
	if s.cur != nil {
		trace.PutBatch(s.cur)
		s.cur, s.pos = nil, 0
	}
	b, ok := <-s.ch
	if !ok {
		<-s.done
		return false
	}
	s.cur = b
	return true
}

// NextBatch makes a *shardStream a trace.Source for the merge: it hands
// over the pending events of the current batch in one copy. The closed
// channel becomes io.EOF — or the shard's terminal error, so generation
// failures surface through the merge.
func (s *shardStream) NextBatch(buf []trace.Event) (int, error) {
	if len(buf) == 0 {
		return 0, nil // a zero-length buffer is a no-op read
	}
	for s.pos >= len(s.cur) {
		if !s.fill() {
			if s.err != nil {
				return 0, s.err
			}
			return 0, io.EOF
		}
	}
	n := copy(buf, s.cur[s.pos:])
	s.pos += n
	return n, nil
}

// batchingSink groups a shard's events into pooled batches and sends
// them over the shard channel, watching abort so a stalled consumer
// cannot wedge the fleet.
type batchingSink struct {
	ch    chan<- []trace.Event
	abort <-chan struct{}
	buf   []trace.Event
}

func (b *batchingSink) send(e trace.Event) error {
	if b.buf == nil {
		b.buf = trace.GetBatch()[:0]
	}
	b.buf = append(b.buf, e)
	if len(b.buf) == cap(b.buf) {
		return b.flush()
	}
	return nil
}

func (b *batchingSink) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	select {
	case b.ch <- b.buf:
		b.buf = nil
		return nil
	case <-b.abort:
		return errAborted
	}
}

// generateSharded fans the population out over cfg.Shards concurrent
// machines and merges their streams into sink in deterministic time
// order. The returned Result aggregates the fleet: kernel stats are
// summed and the static size scans concatenate in shard order.
func generateSharded(cfg Config, sink Sink) (*Result, error) {
	n := cfg.Shards
	if cfg.Meta != nil {
		return nil, fmt.Errorf("workload: Meta hook requires Shards <= 1 (each shard runs its own kernel)")
	}
	full := scaledProfile(cfg)
	parts := splitProfile(full, n)

	abort := make(chan struct{})
	defer close(abort)

	shards := make([]*shardStream, n)
	sources := make([]trace.Source, n)
	for i := range shards {
		s := &shardStream{ch: make(chan []trace.Event, shardChanBuffer), done: make(chan struct{})}
		shards[i] = s
		sources[i] = s
		shardCfg := cfg
		shardCfg.Shards = 0
		shardCfg.Seed = shardSeed(cfg.Seed, i)
		prof := parts[i]
		go func() {
			defer close(s.ch)
			defer close(s.done)
			out := &batchingSink{ch: s.ch, abort: abort}
			s.res, s.err = generateProfile(shardCfg, prof, out.send)
			if s.err == nil {
				s.err = out.flush()
			}
			if s.err == errAborted {
				s.err = nil // the consumer aborted; its error wins
			}
		}()
	}

	if sink == nil {
		sink = func(trace.Event) error { return nil }
	}
	if err := trace.Each(trace.NewMergeSource(sources...), sink); err != nil {
		return nil, err
	}

	out := &Result{Profile: full}
	files := 0
	for _, s := range shards {
		<-s.done
		if s.err != nil {
			return nil, s.err
		}
		files += len(s.res.StaticSizes)
	}
	out.StaticSizes = make([]int64, 0, files)
	for _, s := range shards {
		ks := s.res.KernelStats
		out.KernelStats.Opens += ks.Opens
		out.KernelStats.Creates += ks.Creates
		out.KernelStats.Closes += ks.Closes
		out.KernelStats.Seeks += ks.Seeks
		out.KernelStats.Unlinks += ks.Unlinks
		out.KernelStats.Truncates += ks.Truncates
		out.KernelStats.Execs += ks.Execs
		out.KernelStats.BytesRead += ks.BytesRead
		out.KernelStats.BytesWritten += ks.BytesWritten
		out.StaticSizes = append(out.StaticSizes, s.res.StaticSizes...)
	}
	return out, nil
}
