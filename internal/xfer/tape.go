package xfer

import (
	"sort"
	"sync"

	"bsdtrace/internal/trace"
)

// Tape is the reconstructed transfer stream of one trace, materialized as
// a reusable artifact: one Scanner pass over the events produces the
// complete sequence of transfers plus the interleaved control operations
// (clock advances and dead-data purges) that a consumer replaying the
// stream needs. Transfers are expressed in bytes, so a single tape is
// valid for every block size; the cache simulator builds a tape once and
// replays it into arbitrarily many cache configurations in parallel
// instead of re-reconstructing the same transfers for each one.
//
// The op sequence preserves the exact event order of the source trace:
// replaying the tape is observationally identical to feeding the events
// through a Scanner, with two reductions applied at build time. Events
// that produce no transfer or purge (opens, empty seeks and closes,
// zero-size execs) collapse into OpAdvance clock ticks, and consecutive
// clock ticks merge. An open's size information is not lost: the file
// size the cache layer would have known before each transfer is
// precomputed into OldSizes, so replay needs no per-file size tracking
// at all.
type Tape struct {
	// Ops is the replay sequence. Op times are nondecreasing.
	Ops []Op
	// Transfers holds the reconstructed runs (and synthesized exec
	// reads), indexed by Op.Xfer, in emission order.
	Transfers []Transfer
	// OldSizes is parallel to Transfers: the size of the transfer's file
	// as known just before the transfer, following the paper's cache
	// simulator rules (sizes are learned from open/create/truncate
	// events and from writes that extend a file; execs do not change
	// them). A write run ending beyond OldSizes[i] extends the file;
	// blocks wholly beyond it hold no valid data and need no fetch.
	OldSizes []int64
	// Unclosed is the number of opens still outstanding at the end of
	// the trace (their partial transfers are on the tape).
	Unclosed int

	mu   sync.Mutex
	memo map[int64]*memoEntry
}

type memoEntry struct {
	once sync.Once
	v    any
}

// OpKind discriminates tape operations.
type OpKind uint8

// Tape operations, in replay semantics:
const (
	// OpAdvance moves the clock to Op.Time. Every op implies a clock
	// advance; a bare OpAdvance stands for trace events that produced
	// nothing else, so that time-driven machinery (flush-back scans)
	// observes the same clock motion as the original event stream.
	OpAdvance OpKind = iota
	// OpPurge reports data death: every block of Op.File whose byte
	// range starts at or beyond Op.Size is dead (Size 0 kills the whole
	// file). Emitted for unlinks, truncations, and overwriting creates.
	OpPurge
	// OpTransfer replays Transfers[Op.Xfer].
	OpTransfer
	// OpExec replays Transfers[Op.Xfer], a synthesized whole-file read
	// of an executed binary, but only for consumers that simulate
	// program paging; others treat it as OpAdvance.
	OpExec
)

// Op is one tape operation.
type Op struct {
	Kind OpKind
	// Time is the operation's clock value (the source event's time).
	Time trace.Time
	// File is the dying file for OpPurge.
	File trace.FileID
	// Size is the survival boundary for OpPurge: bytes at or beyond it
	// are dead.
	Size int64
	// Xfer indexes Transfers for OpTransfer and OpExec.
	Xfer int32
}

// TapeBuilder constructs a Tape incrementally from a time-ordered event
// stream: Add each event as it arrives, then Finish. Its working state is
// one Scanner — bounded by the live file population, not the event
// count — so a tape can be built from a stream that never fits in
// memory. The tape's lists grow in fixed-size chunks, and Finish copies
// each into a slice of exactly its length, so a tape of unknown length
// is stored once while it is built and once when it is finished. NewTape
// is exactly a TapeBuilder fed from a slice; the two produce identical
// tapes by construction.
type TapeBuilder struct {
	ops       trace.Chunks[Op]
	transfers trace.Chunks[Transfer]
	oldSizes  trace.Chunks[int64]
	t         *Tape
	sc        *Scanner
}

// NewTapeBuilder creates an empty builder over a fresh scanner.
func NewTapeBuilder() *TapeBuilder { return NewTapeBuilderOn(NewScanner()) }

// NewTapeBuilderOn creates an empty builder over sc, a scanner its caller
// owns and has not fed yet, so that one scan serves the caller's own
// callbacks and the tape: the builder chains sc.OnTransfer after the
// caller's, and Add feeds sc. The caller feeds events through Add only,
// sets no callback afterwards, and lets the builder's Finish finish sc.
func NewTapeBuilderOn(sc *Scanner) *TapeBuilder {
	b := &TapeBuilder{sc: sc}
	prev := sc.OnTransfer
	sc.OnTransfer = func(tr Transfer) {
		if prev != nil {
			prev(tr)
		}
		b.transfer(OpTransfer, tr)
	}
	return b
}

// transfer appends a transfer and the op that replays it.
func (b *TapeBuilder) transfer(kind OpKind, tr Transfer) {
	b.ops.Append(Op{Kind: kind, Time: tr.Time, Xfer: int32(b.transfers.Len())})
	b.transfers.Append(tr)
	b.oldSizes.Append(b.sc.knownSize(tr.File))
}

// Add appends one event's tape operations. Events must arrive in time
// order.
func (b *TapeBuilder) Add(e trace.Event) {
	n := b.ops.Len()
	switch e.Kind {
	case trace.KindCreate:
		// Overwrite: the file's previous blocks are dead.
		b.ops.Append(Op{Kind: OpPurge, Time: e.Time, File: e.File})
	case trace.KindTruncate:
		b.ops.Append(Op{Kind: OpPurge, Time: e.Time, File: e.File, Size: e.Size})
	case trace.KindUnlink:
		b.ops.Append(Op{Kind: OpPurge, Time: e.Time, File: e.File})
	case trace.KindExec:
		if e.Size > 0 {
			b.transfer(OpExec, Transfer{
				Time: e.Time, Start: e.Time,
				File: e.File, User: e.User,
				Offset: 0, Length: e.Size,
				Mode: trace.ReadOnly,
			})
		}
	}
	b.sc.Feed(e)
	if b.ops.Len() == n {
		// The event produced nothing; keep its clock motion.
		if n > 0 && b.ops.Last().Kind == OpAdvance {
			b.ops.Last().Time = e.Time
		} else {
			b.ops.Append(Op{Kind: OpAdvance, Time: e.Time})
		}
	}
}

// Finish completes the tape. It returns the first malformed-stream
// complaint as an error, exactly as scanning would. Add calls after
// Finish are invalid; calling Finish again returns the same tape.
func (b *TapeBuilder) Finish() (*Tape, error) {
	if b.t == nil {
		// The scanner's Finish emits the transfers of unclosed opens.
		unclosed := b.sc.Finish()
		b.t = &Tape{Ops: b.ops.Flat(), Transfers: b.transfers.Flat(), OldSizes: b.oldSizes.Flat(), Unclosed: unclosed}
		b.ops, b.transfers, b.oldSizes = nil, nil, nil
	}
	if errs := b.sc.Errs(); len(errs) > 0 {
		return nil, errs[0]
	}
	return b.t, nil
}

// NewTape reconstructs the transfer tape of a time-ordered trace. It
// returns the first malformed-stream complaint as an error, exactly as
// scanning would.
func NewTape(events []trace.Event) (*Tape, error) {
	b := NewTapeBuilder()
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish()
}

// BuildTape reconstructs the transfer tape of a time-ordered event
// stream: the source's trace never needs to fit in memory
// (*trace.Reader is a Source, as is a merged shard stream).
func BuildTape(src trace.Source) (*Tape, error) {
	b := NewTapeBuilder()
	if err := trace.Each(src, func(e trace.Event) error {
		b.Add(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return b.Finish()
}

// MergeTapes merges the tapes of several machines' traces into the tape
// of their merged trace, the one BuildTape makes from a
// trace.NewMergeSource over the machines' event streams. Ops interleave
// in (time, machine) order, ties in each tape's own order. Each
// machine's files, open IDs and users are renamed by trace.RemapIDs'
// mapping, transfers are renumbered in merged op order and carry their
// OldSizes, and Unclosed is the sum.
//
// Adjacent advances fold into one, as the builder folds them, but the
// two tapes can still differ in advances: a machine's tape has already
// folded its no-op events, so a clock point inside such a run is gone
// from this merge while a tape built from merged events keeps it when
// another machine's op lands there. Every replay result is the same
// either way. An advance only moves the clock, every other op moves it
// too, and a flush-back scan runs at its scheduled time whichever op
// carries the clock past it.
func MergeTapes(tapes []*Tape) *Tape {
	n := len(tapes)
	out := &Tape{}
	lists := make([][][]Op, n)
	var ops, xfers int
	for m, t := range tapes {
		lists[m] = [][]Op{t.Ops}
		ops += len(t.Ops)
		xfers += len(t.Transfers)
		out.Unclosed += t.Unclosed
	}
	out.Ops = make([]Op, 0, ops)
	out.Transfers = make([]Transfer, 0, xfers)
	out.OldSizes = make([]int64, 0, xfers)
	trace.Interleave(lists, func(op *Op) trace.Time { return op.Time }, func(m int, op *Op) {
		o := *op
		switch o.Kind {
		case OpAdvance:
			if k := len(out.Ops); k > 0 && out.Ops[k-1].Kind == OpAdvance {
				out.Ops[k-1].Time = o.Time
				return
			}
		case OpPurge:
			o.File = trace.RemapIDs(trace.Event{File: o.File}, n, m).File
		case OpTransfer, OpExec:
			// Rename as the event that began the transfer was renamed:
			// an open, whose open ID the mapping always renames, or
			// the exec itself.
			tr := tapes[m].Transfers[o.Xfer]
			began := trace.Event{Kind: trace.KindOpen, OpenID: tr.OpenID, File: tr.File, User: tr.User}
			if o.Kind == OpExec {
				began.Kind = trace.KindExec
			}
			began = trace.RemapIDs(began, n, m)
			tr.OpenID, tr.File, tr.User = began.OpenID, began.File, began.User
			out.OldSizes = append(out.OldSizes, tapes[m].OldSizes[o.Xfer])
			o.Xfer = int32(len(out.Transfers))
			out.Transfers = append(out.Transfers, tr)
		}
		out.Ops = append(out.Ops, o)
	})
	return out
}

// Truncate returns the tape's prefix up to and including time at: every
// op with Time <= at, followed (if needed) by a bare clock advance to
// exactly at, so that time-driven machinery — flush-back scans scheduled
// at or before at — observes the same clock motion a full replay would
// have delivered by that instant. Replaying the truncated tape therefore
// reproduces the cache state of a crash at time at; the crash-injection
// layer uses independent truncated replays as the oracle for its
// single-pass sweep. Transfers and OldSizes are shared with the receiver
// (both are read-only); the memo cache and Unclosed are not carried over.
func (t *Tape) Truncate(at trace.Time) *Tape {
	n := sort.Search(len(t.Ops), func(i int) bool { return t.Ops[i].Time > at })
	ops := make([]Op, n, n+1)
	copy(ops, t.Ops[:n])
	if n == 0 || ops[n-1].Time < at {
		ops = append(ops, Op{Kind: OpAdvance, Time: at})
	}
	return &Tape{Ops: ops, Transfers: t.Transfers, OldSizes: t.OldSizes}
}

// Memo returns the value cached on the tape under key, building and
// caching it on first use. Consumers use it to attach derived read-only
// artifacts (the cache simulator keys per-block-size resolutions by
// block size) so that repeated sweeps over one tape pay the derivation
// cost once. Safe for concurrent use: concurrent callers with the same
// key share one build, while different keys build in parallel.
func (t *Tape) Memo(key int64, build func() any) any {
	t.mu.Lock()
	e := t.memo[key]
	if e == nil {
		if t.memo == nil {
			t.memo = make(map[int64]*memoEntry)
		}
		e = &memoEntry{}
		t.memo[key] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}
