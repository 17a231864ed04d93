// Package analyzer implements the reference-pattern analyses of Section 5
// of the paper: overall trace statistics (Table III), system activity and
// per-user throughput (Table IV), sequentiality of access (Table V),
// sequential run lengths (Figure 1), dynamic file sizes (Figure 2), open
// durations (Figure 3), and the lifetimes of newly written data (Figure 4).
// It also measures the inter-event intervals that bound the accuracy of the
// no-read-write tracing approach (§3.1).
//
// The analyzer consumes a time-ordered event stream; transfers are
// reconstructed by the xfer package, so the analyzer and the cache
// simulator agree about what was transferred and when.
package analyzer

import (
	"cmp"
	"slices"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Options configures an analysis. The zero value selects the paper's
// parameters.
type Options struct {
	// LongInterval is the activity bucketing used for the "active over
	// ten-minute intervals" rows of Table IV. Default 10 minutes.
	LongInterval trace.Time
	// ShortInterval is the fine activity bucketing. Default 10 seconds.
	ShortInterval trace.Time
}

func (o *Options) fill() {
	if o.LongInterval <= 0 {
		o.LongInterval = 10 * trace.Minute
	}
	if o.ShortInterval <= 0 {
		o.ShortInterval = 10 * trace.Second
	}
}

// Overall mirrors Table III: one trace's headline numbers.
type Overall struct {
	// Duration is the time of the last event.
	Duration trace.Time
	// Counts tallies events by kind.
	Counts trace.Counts
	// EncodedSize is the size of the trace in the binary format, the
	// analogue of the paper's "size of trace file" row.
	EncodedSize int64
	// BytesTransferred is the total reconstructed data volume, split by
	// direction in BytesRead and BytesWritten.
	BytesTransferred int64
	BytesRead        int64
	BytesWritten     int64
	// UnclosedOpens counts opens still outstanding at the end of trace.
	UnclosedOpens int
}

// ActivityRow is Table IV's measurements at one interval width.
type ActivityRow struct {
	// Interval is the bucketing width.
	Interval trace.Time
	// ActiveUsers summarizes the number of active users per interval
	// (mean ± sd across all intervals in the trace).
	ActiveUsers stats.Welford
	// MaxActiveUsers is the greatest number of users active in any one
	// interval.
	MaxActiveUsers int
	// PerUserThroughput summarizes bytes-per-second per active user,
	// across all (interval, active user) pairs.
	PerUserThroughput stats.Welford
}

// Activity mirrors Table IV.
type Activity struct {
	// TotalUsers is the number of distinct users over the life of the
	// trace.
	TotalUsers int
	// AvgThroughput is total bytes transferred divided by trace duration.
	AvgThroughput float64
	// Long and Short are the ten-minute and ten-second interval rows.
	Long, Short ActivityRow
}

// ModeClass indexes the three access classes of Table V.
type ModeClass int

// Access classes.
const (
	ClassReadOnly ModeClass = iota
	ClassWriteOnly
	ClassReadWrite
	numClasses
)

func classOf(m trace.Mode) ModeClass {
	switch m {
	case trace.ReadOnly:
		return ClassReadOnly
	case trace.WriteOnly:
		return ClassWriteOnly
	default:
		return ClassReadWrite
	}
}

// Sequentiality mirrors Table V: counts of whole-file and sequential
// accesses by access class, and the byte volumes moved by each kind.
type Sequentiality struct {
	// Accesses counts completed opens per class.
	Accesses [numClasses]int64
	// WholeFile counts accesses that transferred the entire file
	// sequentially from beginning to end, per class.
	WholeFile [numClasses]int64
	// Sequential counts accesses whose bytes form a single sequential
	// run (whole-file transfers plus one-initial-reposition accesses).
	Sequential [numClasses]int64
	// BytesTotal, BytesWholeFile, and BytesSequential are the data
	// volumes moved by all, whole-file, and sequential accesses.
	BytesTotal      int64
	BytesWholeFile  int64
	BytesSequential int64
}

// WholeFileFraction returns the fraction of class-c accesses that were
// whole-file transfers.
func (s *Sequentiality) WholeFileFraction(c ModeClass) float64 {
	if s.Accesses[c] == 0 {
		return 0
	}
	return float64(s.WholeFile[c]) / float64(s.Accesses[c])
}

// SequentialFraction returns the fraction of class-c accesses that were
// sequential.
func (s *Sequentiality) SequentialFraction(c ModeClass) float64 {
	if s.Accesses[c] == 0 {
		return 0
	}
	return float64(s.Sequential[c]) / float64(s.Accesses[c])
}

// Sharing measures cross-user file sharing, a question the paper's
// related-work section raises (Porcar studied only shared files, under 10%
// of his system's files). A file is shared when more than one user opens
// or executes it during the trace; daemons (user 0) count like any user.
type Sharing struct {
	// FilesAccessed counts distinct files opened, created, or executed;
	// FilesShared those touched by more than one user.
	FilesAccessed int64
	FilesShared   int64
	// AccessesTotal counts opens, creates, and execs; AccessesToShared
	// those landing on shared files.
	AccessesTotal    int64
	AccessesToShared int64
}

// SharedFileFraction returns the fraction of accessed files that were
// shared between users.
func (s *Sharing) SharedFileFraction() float64 {
	if s.FilesAccessed == 0 {
		return 0
	}
	return float64(s.FilesShared) / float64(s.FilesAccessed)
}

// SharedAccessFraction returns the fraction of accesses that went to
// shared files.
func (s *Sharing) SharedAccessFraction() float64 {
	if s.AccessesTotal == 0 {
		return 0
	}
	return float64(s.AccessesToShared) / float64(s.AccessesTotal)
}

// Lifetimes holds the Figure 4 results.
type Lifetimes struct {
	// ByFiles is the CDF of new-file lifetimes weighted by file count;
	// ByBytes weights each file by the bytes written to it. Files still
	// alive at the end of the trace are censored into the top bucket.
	ByFiles, ByBytes stats.CDF
	// NewFiles counts files born during the trace (created, or truncated
	// to zero); DeadFiles counts those that also died during the trace.
	NewFiles, DeadFiles int64
}

// Analysis bundles every Section-5 result for one trace.
type Analysis struct {
	Overall       Overall
	Activity      Activity
	Sequentiality Sequentiality

	// RunLengthsByRuns and RunLengthsByBytes are Figure 1: cumulative
	// distributions of sequential run length, weighted by run count and
	// by bytes moved.
	RunLengthsByRuns, RunLengthsByBytes stats.CDF
	// FileSizesByFiles and FileSizesByBytes are Figure 2: dynamic file
	// size at close, weighted by accesses and by bytes transferred.
	FileSizesByFiles, FileSizesByBytes stats.CDF
	// OpenTimes is Figure 3: how long files stay open.
	OpenTimes stats.CDF
	// Lifetimes is Figure 4.
	Lifetimes Lifetimes
	// EventIntervals is the §3.1 measurement: the gaps between
	// successive trace events for the same open file, which bound the
	// times at which transfers actually happened.
	EventIntervals stats.CDF
	// Sharing measures cross-user file sharing (an extension beyond the
	// paper's own tables).
	Sharing Sharing
}

// file is one entry of the stream's file table: the file's sharing and,
// while it lives, its lifetime. Sharing records whether more than one
// user touched the file without storing the full user set.
type file struct {
	birth    trace.Time   // when the live file was born
	bytes    int64        // bytes written to the live file
	accesses int64        // opens, creates and execs
	first    trace.UserID // the first user to access the file
	users    uint8        // users seen: 0, 1 or 2 ("more than one")
	live     bool         // born during the trace and not yet dead
}

// user is one entry of the stream's user table, which holds every user
// seen: one slot per activity accumulator, so a single lookup serves
// both.
type user struct {
	id    trace.UserID
	slots [2]activitySlot // indexed by activityAccum.slot
}

// activitySlot is one user's activity in an accumulator's current
// interval.
type activitySlot struct {
	active bool  // listed in the accumulator's active users
	bytes  int64 // bytes moved this interval
}

// activityAccum buckets user activity at one interval width.
type activityAccum struct {
	width   trace.Time
	slot    int     // this accumulator's index into user.slots
	current int64   // current interval index
	active  []*user // users active this interval, in order of arrival
	row     ActivityRow
	started bool
}

func newActivityAccum(width trace.Time, slot int) *activityAccum {
	return &activityAccum{width: width, slot: slot, row: ActivityRow{Interval: width}}
}

func (a *activityAccum) interval(t trace.Time) int64 { return int64(t / a.width) }

// advance flushes completed intervals up to (not including) the interval
// containing t.
func (a *activityAccum) advance(t trace.Time) {
	if a.started && a.current >= 0 && t < trace.Time(a.current+1)*a.width {
		return // still in the current interval: no division
	}
	idx := a.interval(t)
	if !a.started {
		a.current = idx
		a.started = true
		return
	}
	for a.current < idx {
		a.flush()
		a.current++
	}
}

func byID(x, y *user) int { return cmp.Compare(x.id, y.id) }

// fold adds the current interval's active users to row. It feeds the
// throughput accumulator in user order: float summation isn't
// associative, so arrival order would make the resulting moments depend
// on how the users interleaved.
func (a *activityAccum) fold(row *ActivityRow) {
	n := len(a.active)
	row.ActiveUsers.Add(float64(n))
	if n > row.MaxActiveUsers {
		row.MaxActiveUsers = n
	}
	secs := a.width.Seconds()
	slices.SortFunc(a.active, byID)
	for _, u := range a.active {
		row.PerUserThroughput.Add(float64(u.slots[a.slot].bytes) / secs)
	}
}

// flush closes the current interval: its users go into the row and
// their slots are cleared.
func (a *activityAccum) flush() {
	a.fold(&a.row)
	for _, u := range a.active {
		u.slots[a.slot] = activitySlot{}
	}
	a.active = a.active[:0]
}

// touch marks u active in the interval containing t and returns its slot.
func (a *activityAccum) touch(t trace.Time, u *user) *activitySlot {
	a.advance(t)
	return a.mark(u)
}

// mark lists u as active in the current interval and returns its slot.
func (a *activityAccum) mark(u *user) *activitySlot {
	sl := &u.slots[a.slot]
	if !sl.active {
		sl.active = true
		a.active = append(a.active, u)
	}
	return sl
}

func (a *activityAccum) bytes(t trace.Time, u *user, n int64) {
	a.touch(t, u).bytes += n
}

// rowSoFar returns the row with the current interval folded in, leaving
// the accumulator's row and its users' slots untouched.
func (a *activityAccum) rowSoFar() ActivityRow {
	row := a.row
	if a.started {
		a.fold(&row)
	}
	return row
}

// Stream is the incremental form of the Section-5 analysis: feed it a
// time-ordered event stream one event at a time and call Finish once at
// the end. Its working state is bounded by the trace's live population —
// open files, files alive or shared, the fixed histograms — never by the
// event count, so a stream of any length analyzes in roughly constant
// memory. Analyze is exactly a Stream fed from a slice; the two produce
// identical results by construction, and the equivalence tests pin that.
type Stream struct {
	an *Analysis

	// Histograms behind the CDFs. Bounds span the ranges the paper's
	// figures cover, with log spacing (linear for lifetimes, where the
	// 180-second daemon spike needs 1-second resolution).
	runLenRuns  *stats.Histogram
	runLenBytes *stats.Histogram
	sizeFiles   *stats.Histogram
	sizeBytes   *stats.Histogram
	openTimes   *stats.Histogram
	lifeFiles   *stats.Histogram
	lifeBytes   *stats.Histogram
	gaps        *stats.Histogram

	longAcc  *activityAccum
	shortAcc *activityAccum
	users    trace.Table[trace.UserID, *user]
	files    trace.Table[trace.FileID, file]

	sc *xfer.Scanner
	tb *xfer.TapeBuilder // nil unless AttachTape; drives sc when set

	// The trace's size in the binary format, for EncodedSize: the
	// header plus each valid event's record, which trace.AppendRecord
	// encodes into the scratch buffer rec to be measured. prev is the
	// delta-time base a writer of the same trace would hold.
	size int64
	prev trace.Time
	rec  []byte

	finished bool
}

// The stream histograms' three bucket shapes, built once: NewStream
// clones them, and a clone shares the bounds and lookup table.
var (
	byteBuckets     = stats.NewLogHistogram(64, 1.3, 60)    // bytes: 64 B .. ~400 MB
	secondBuckets   = stats.NewLogHistogram(0.01, 1.25, 70) // seconds: 10 ms .. ~60 ks
	lifetimeBuckets = stats.NewLinearHistogram(600, 1)      // seconds, 1 s bins to 10 min
)

// NewStream creates an incremental analyzer.
func NewStream(opts Options) *Stream {
	opts.fill()
	s := &Stream{
		an:          &Analysis{},
		runLenRuns:  byteBuckets.Clone(),
		runLenBytes: byteBuckets.Clone(),
		sizeFiles:   byteBuckets.Clone(),
		sizeBytes:   byteBuckets.Clone(),
		openTimes:   secondBuckets.Clone(),
		lifeFiles:   lifetimeBuckets.Clone(),
		lifeBytes:   lifetimeBuckets.Clone(),
		gaps:        secondBuckets.Clone(),
		longAcc:     newActivityAccum(opts.LongInterval, 0),
		shortAcc:    newActivityAccum(opts.ShortInterval, 1),
		size:        trace.HeaderSize,
	}

	an := s.an
	s.sc = xfer.NewScanner()
	s.sc.OnTransfer = func(x xfer.Transfer) {
		an.Overall.BytesTransferred += x.Length
		if x.Write {
			an.Overall.BytesWritten += x.Length
		} else {
			an.Overall.BytesRead += x.Length
		}
		s.runLenRuns.Add(float64(x.Length), 1)
		s.runLenBytes.Add(float64(x.Length), float64(x.Length))
		u := s.user(x.User)
		s.longAcc.bytes(x.Time, u, x.Length)
		s.shortAcc.bytes(x.Time, u, x.Length)
		if x.Write {
			if f := s.files.Get(x.File); f != nil && f.live {
				f.bytes += x.Length
			}
		}
	}
	s.sc.OnOpenEnd = func(o xfer.OpenSummary) {
		c := classOf(o.Mode)
		seq := &an.Sequentiality
		seq.Accesses[c]++
		seq.BytesTotal += o.Bytes
		if o.WholeFile {
			seq.WholeFile[c]++
			seq.BytesWholeFile += o.Bytes
		}
		if o.Sequential {
			seq.Sequential[c]++
			seq.BytesSequential += o.Bytes
		}
		s.sizeFiles.Add(float64(o.SizeAtClose), 1)
		s.sizeBytes.Add(float64(o.SizeAtClose), float64(o.Bytes))
		s.openTimes.Add((o.CloseTime - o.OpenTime).Seconds(), 1)
	}
	s.sc.OnEventGap = func(g trace.Time) {
		s.gaps.Add(g.Seconds(), 1)
	}
	return s
}

// AttachTape makes the stream also build the transfer tape of the events
// it is fed, on its own scanner, so each event is scanned once. Call it
// before the first Feed. Finish the stream first, then the returned
// builder: the stream's Finish finishes the shared scanner, and the
// builder's Finish returns the tape and any malformed-stream complaint.
// A stream carrying a tape cannot be checkpointed.
func (s *Stream) AttachTape() *xfer.TapeBuilder {
	s.tb = xfer.NewTapeBuilderOn(s.sc)
	return s.tb
}

// user returns id's entry in the user table, adding it if new.
func (s *Stream) user(id trace.UserID) *user {
	u := s.users.Put(id)
	if *u == nil {
		*u = &user{id: id}
	}
	return *u
}

// die closes out f's life, if it is live, for the lifetime analysis.
func (s *Stream) die(f *file, t trace.Time) {
	if !f.live {
		return
	}
	age := (t - f.birth).Seconds()
	s.lifeFiles.Add(age, 1)
	s.lifeBytes.Add(age, float64(f.bytes))
	s.an.Lifetimes.DeadFiles++
	f.live = false
}

// rebirth starts a new life of f at t, closing out the previous one.
func (s *Stream) rebirth(f *file, t trace.Time) {
	s.die(f, t)
	f.live, f.birth, f.bytes = true, t, 0
	s.an.Lifetimes.NewFiles++
}

// Feed analyzes one event. Events must arrive in time order.
func (s *Stream) Feed(e trace.Event) {
	an := s.an
	an.Overall.Counts.Add(e)
	if e.Time > an.Overall.Duration {
		an.Overall.Duration = e.Time
	}
	// A writer refuses events of invalid kinds, so they add no bytes.
	if e.Kind.Valid() {
		s.rec = trace.AppendRecord(s.rec[:0], s.prev, e)
		s.size += int64(len(s.rec))
		s.prev = e.Time
	}

	// Sharing: record which users touch which files; and attribute the
	// event to a user for the activity analysis.
	var f *file
	var u *user
	switch e.Kind {
	case trace.KindCreate, trace.KindOpen, trace.KindExec:
		f = s.files.Put(e.File)
		switch {
		case f.users == 0:
			f.first, f.users = e.User, 1
		case f.users == 1 && e.User != f.first:
			f.users = 2
		}
		f.accesses++
		u = s.user(e.User)
	case trace.KindClose, trace.KindSeek:
		if id, ok := s.sc.OpenUser(e.OpenID); ok {
			u = s.user(id)
		}
	}
	if u != nil {
		s.longAcc.touch(e.Time, u)
		s.shortAcc.touch(e.Time, u)
	}

	// Lifetime state machine (Figure 4): births at create and
	// truncate-to-zero, deaths at unlink, overwrite, and truncation.
	switch e.Kind {
	case trace.KindCreate:
		s.rebirth(f, e.Time) // overwrite of previous incarnation
	case trace.KindTruncate:
		if e.Size == 0 {
			s.rebirth(s.files.Put(e.File), e.Time)
		}
	case trace.KindUnlink:
		if f := s.files.Get(e.File); f != nil {
			s.die(f, e.Time)
		}
	}

	if s.tb != nil {
		s.tb.Add(e) // feeds s.sc
	} else {
		s.sc.Feed(e)
	}
}

// Snapshot returns the analysis of the stream so far, as if the trace
// ended at the last event fed: open intervals are flushed, files still
// alive are censored into the top lifetime bucket, and every CDF is
// materialized — exactly what Finish would report right now. Unlike
// Finish it does not disturb the incremental state: Feed may continue
// afterwards, and a later Finish (or Snapshot) produces byte-identical
// results whether or not Snapshot was ever called. After Finish,
// Snapshot returns the finished Analysis. Like Feed, Snapshot must be
// called from the feeding goroutine or with external synchronization.
func (s *Stream) Snapshot() *Analysis {
	if s.finished {
		return s.an
	}
	an := *s.an
	an.Overall.UnclosedOpens = s.sc.OpenCount()
	an.Overall.EncodedSize = s.size

	// Censor survivors into the top bucket so the by-files and by-bytes
	// CDFs are normalized over all new files, as Figure 4 is.
	const censored = 1e18
	lifeFiles := s.lifeFiles.Clone()
	lifeBytes := s.lifeBytes.Clone()
	an.Sharing = Sharing{}
	s.files.Each(func(_ trace.FileID, f *file) {
		if f.live {
			lifeFiles.Add(censored, 1)
			lifeBytes.Add(censored, float64(f.bytes))
		}
		if f.users > 0 {
			an.Sharing.FilesAccessed++
			an.Sharing.AccessesTotal += f.accesses
			if f.users > 1 {
				an.Sharing.FilesShared++
				an.Sharing.AccessesToShared += f.accesses
			}
		}
	})

	an.Activity.Long = s.longAcc.rowSoFar()
	an.Activity.Short = s.shortAcc.rowSoFar()
	an.Activity.TotalUsers = s.users.Len()
	if an.Overall.Duration > 0 {
		an.Activity.AvgThroughput = float64(an.Overall.BytesTransferred) / an.Overall.Duration.Seconds()
	}

	an.RunLengthsByRuns = s.runLenRuns.CDF()
	an.RunLengthsByBytes = s.runLenBytes.CDF()
	an.FileSizesByFiles = s.sizeFiles.CDF()
	an.FileSizesByBytes = s.sizeBytes.CDF()
	an.OpenTimes = s.openTimes.CDF()
	an.Lifetimes.ByFiles = lifeFiles.CDF()
	an.Lifetimes.ByBytes = lifeBytes.CDF()
	an.EventIntervals = s.gaps.CDF()
	return &an
}

// Finish completes the analysis and returns it: the Snapshot of the
// whole stream. Further Feed calls after Finish are invalid; calling
// Finish again returns the same Analysis.
func (s *Stream) Finish() *Analysis {
	if s.finished {
		return s.an
	}
	s.an = s.Snapshot()
	s.finished = true
	if s.tb != nil {
		// The builder finishes the shared scanner, once, discarding the
		// opens still outstanding. The tape and any complaint are for
		// the builder's owner, whose own Finish returns them.
		_, _ = s.tb.Finish()
	} else {
		s.sc.Finish()
	}
	return s.an
}

// Analyze runs the full Section-5 analysis over a time-ordered trace.
func Analyze(events []trace.Event, opts Options) *Analysis {
	s := NewStream(opts)
	for _, e := range events {
		s.Feed(e)
	}
	return s.Finish()
}

// AnalyzeSource pulls a time-ordered event stream to completion and
// analyzes it: the source's trace never needs to fit in memory. fsbench
// times it; the other commands feed a Stream themselves, because their
// one pass also feeds other consumers.
func AnalyzeSource(src trace.Source, opts Options) (*Analysis, error) {
	s := NewStream(opts)
	if err := trace.Each(src, func(e trace.Event) error {
		s.Feed(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}
