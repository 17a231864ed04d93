package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/workload"
)

// config is the daemon's effective configuration.
type config struct {
	profile   string
	seed      int64
	duration  trace.Time
	scale     float64
	shards    int
	interval  int     // records per checkpoint segment == per stream chunk
	retain    int     // sealed chunks retained for late joiners
	pace      float64 // simulated seconds per wall second; 0 = full speed
	manifest  string
	snapshot  time.Duration
	state     string        // daemon checkpoint file; "" disables checkpointing
	stall     time.Duration // slow-consumer stall budget before eviction
	maxIngest int           // concurrent ingests before load shedding
}

// name is the trace name the report renders under, fsanalyze-style.
func (c config) name() string { return strings.ToLower(c.profile) }

// errStopped aborts generation from the sink when the daemon shuts down.
var errStopped = errors.New("fstraced: stopped")

// ingestSummary is the JSON result of one POST /ingest.
type ingestSummary struct {
	Name             string  `json:"name"`
	Lenient          bool    `json:"lenient"`
	Events           int64   `json:"events"`
	DurationMS       int64   `json:"duration_ms"`
	BytesRead        int64   `json:"bytes_read"`
	BytesWritten     int64   `json:"bytes_written"`
	Users            int     `json:"users"`
	UnclosedOpens    int     `json:"unclosed_opens"`
	ValidationErrors int     `json:"validation_errors"`
	SkippedBytes     int64   `json:"skipped_bytes,omitempty"`
	SkippedRecords   int64   `json:"skipped_records,omitempty"`
	SkippedSegments  int64   `json:"skipped_segments,omitempty"`
	RepairedDropped  int64   `json:"repaired_dropped,omitempty"`
	RepairedSynth    int64   `json:"repaired_synthesized,omitempty"`
	RepairedRewrites int64   `json:"repaired_rewritten,omitempty"`
	Truncated        string  `json:"truncated,omitempty"`
	AvgThroughput    float64 `json:"avg_throughput_bps"`
}

// ingestLog keeps the recent upload summaries for /stats.
type ingestLog struct {
	mu     sync.Mutex
	total  int64
	seq    int64
	recent []ingestSummary
}

func (l *ingestLog) add(s ingestSummary) {
	l.mu.Lock()
	l.total++
	l.recent = append(l.recent, s)
	if len(l.recent) > 16 {
		l.recent = l.recent[1:]
	}
	l.mu.Unlock()
}

func (l *ingestLog) nextName() string {
	l.mu.Lock()
	l.seq++
	n := l.seq
	l.mu.Unlock()
	return fmt.Sprintf("upload-%d", n)
}

func (l *ingestLog) snapshot() (int64, []ingestSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total, append([]ingestSummary(nil), l.recent...)
}

// state returns the full resumable state, for the daemon checkpoint.
func (l *ingestLog) state() (total, seq int64, recent []ingestSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total, l.seq, append([]ingestSummary(nil), l.recent...)
}

// liveState is the rolling online analysis of the generated stream,
// fed by the analysis subscriber and read by /stats and /report.
type liveState struct {
	mu        sync.Mutex
	stream    *analyzer.Stream
	validator *trace.Validator
	events    int64
	final     *analyzer.Analysis // set once the stream ends
	genErr    error
	done      bool
	aborted   bool // generation stopped early: analysis left unfinished, resumable
}

// analysis returns the rolling (or, after end of stream, final)
// analysis and whether the stream has ended.
func (l *liveState) analysis() (*analyzer.Analysis, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.final != nil {
		return l.final, true
	}
	return l.stream.Snapshot(), false
}

type daemon struct {
	cfg  config
	reg  *obs.Registry
	fan  *trace.Fanout
	hub  *streamHub
	live *liveState
	ing  *ingestLog
	mux  *http.ServeMux

	// Resume position: the restored run continues after the first
	// resumeFrom regenerated events, whose last timestamp is resumeTime.
	resumeFrom int64
	resumeTime trace.Time

	ingSem chan struct{} // bounded ingest admission; full = shed with 429

	started     time.Time
	stopped     atomic.Bool
	genComplete atomic.Bool // generation ran to its natural end
	stopOnce    sync.Once
	stopCh      chan struct{}
	genDone     chan struct{} // closed when the analysis subscriber finishes
	done        chan struct{} // closed when every daemon goroutine has exited
	wg          sync.WaitGroup
}

func newDaemon(cfg config) *daemon {
	if cfg.interval <= 0 {
		cfg.interval = trace.DefaultCheckpointInterval
	}
	if cfg.maxIngest <= 0 {
		cfg.maxIngest = 4
	}
	d := &daemon{
		cfg: cfg,
		reg: obs.NewRegistry(),
		fan: trace.NewFanout(0),
		hub: newStreamHub(cfg.retain, cfg.stall),
		live: &liveState{
			stream:    analyzer.NewStream(analyzer.Options{}),
			validator: trace.NewValidator(16),
		},
		ing:     &ingestLog{},
		ingSem:  make(chan struct{}, cfg.maxIngest),
		stopCh:  make(chan struct{}),
		genDone: make(chan struct{}),
		done:    make(chan struct{}),
	}
	d.reg.SetEnabled(true)
	d.mux = http.NewServeMux()
	d.mux.HandleFunc("/", d.handleIndex)
	d.mux.HandleFunc("/healthz", d.handleHealthz)
	d.mux.HandleFunc("/stream", d.handleStream)
	d.mux.HandleFunc("/events", d.handleEvents)
	d.mux.HandleFunc("/ingest", d.handleIngest)
	d.mux.HandleFunc("/stats", d.handleStats)
	d.mux.HandleFunc("/report", d.handleReport)
	d.mux.Handle("/debug/", obs.DebugMux(d.reg))
	return d
}

// start launches the pipeline: producer -> fan-out -> {recorder,
// analysis} plus the manifest and checkpoint snapshotters.
func (d *daemon) start() {
	d.started = time.Now()
	recSub := d.fan.Subscribe()
	anSub := d.fan.Subscribe()
	// Capture the stream header synchronously, before the first client
	// can possibly subscribe: a subscriber must never see a headerless
	// prefix. On a resumed run the preamble also carries the resume
	// checkpoint, so a fresh reader of the new stream accounts the
	// pre-resume records as skipped — exact loss accounting at the
	// client, not a silent gap.
	var buf bytes.Buffer
	var w *trace.Writer
	if d.resumeFrom > 0 {
		w = trace.NewResumedWriterV2(&buf, d.cfg.interval, d.resumeFrom, d.resumeTime)
	} else {
		w = trace.NewWriterV2(&buf, d.cfg.interval)
	}
	if err := w.Flush(); err == nil {
		d.hub.setHeader(append([]byte(nil), buf.Bytes()...))
		buf.Reset()
	}
	d.wg.Add(3)
	go d.recorder(recSub, w, &buf)
	go d.analysisLoop(anSub)
	go d.producer()
	if d.cfg.manifest != "" {
		d.wg.Add(1)
		go d.manifestLoop()
	}
	if d.cfg.state != "" {
		d.wg.Add(1)
		go d.checkpointLoop()
	}
	go func() {
		d.wg.Wait()
		close(d.done)
	}()
}

// stop aborts generation and waits for every daemon goroutine. The
// caller must first take down the HTTP server (or drain the clients) so
// stream backpressure cannot hold the pipeline open.
func (d *daemon) stop() {
	d.stopped.Store(true)
	d.stopOnce.Do(func() { close(d.stopCh) })
	<-d.done
}

// paceSleep throttles generation to cfg.pace simulated seconds per wall
// second, in short slices so shutdown stays responsive.
func (d *daemon) paceSleep(t trace.Time, start time.Time) {
	if d.cfg.pace <= 0 {
		return
	}
	target := time.Duration(t.Seconds() / d.cfg.pace * float64(time.Second))
	for {
		ahead := target - time.Since(start)
		if ahead <= 0 || d.stopped.Load() {
			return
		}
		if ahead > 200*time.Millisecond {
			ahead = 200 * time.Millisecond
		}
		select {
		case <-d.stopCh:
			return
		case <-time.After(ahead):
		}
	}
}

func (d *daemon) producer() {
	defer d.wg.Done()
	start := time.Now()
	genEvents := d.reg.Counter("fstraced.gen.events")
	wcfg := workload.Config{
		Profile:   d.cfg.profile,
		Seed:      d.cfg.seed,
		Duration:  d.cfg.duration,
		UserScale: d.cfg.scale,
		Shards:    d.cfg.shards,
	}
	// On a resumed run the deterministic workload is regenerated from
	// the same seed, and the already-analyzed prefix is fast-forwarded
	// past at full speed: not paced, not fanned out, not counted again
	// (the gen.events counter was restored from the checkpoint). The
	// prefix does rebuild the validator, which the checkpoint does not
	// carry: it is checked in batches, one lock per batch, and the last
	// batch is checked before the first live record is fanned out.
	var idx int64
	prefix := trace.GetBatch()[:0]
	defer trace.PutBatch(prefix)
	sink := func(e trace.Event) error {
		if d.stopped.Load() {
			return errStopped
		}
		if idx < d.resumeFrom {
			idx++
			if prefix = append(prefix, e); len(prefix) == cap(prefix) || idx == d.resumeFrom {
				d.live.mu.Lock()
				for _, p := range prefix {
					d.live.validator.Check(p)
				}
				d.live.mu.Unlock()
				prefix = prefix[:0]
			}
			return nil
		}
		idx++
		d.paceSleep(e.Time-d.resumeTime, start)
		if err := d.fan.Write(e); err != nil {
			return err
		}
		genEvents.Inc()
		return nil
	}
	_, err := workload.GenerateStream(wcfg, sink)
	if err == nil {
		// Natural end of the trace: the analysis loop may finalize.
		// Ordered before fan.Close, so subscribers observing EOF see it.
		d.genComplete.Store(true)
	}
	if err == errStopped || errors.Is(err, trace.ErrFanoutDone) {
		err = nil
	}
	d.fan.Close(err)
}

// recorder encodes the stream once into v2 framing and cuts it into
// checkpoint-aligned chunks for the hub. The chunk boundary trick: the
// writer checkpoints every cfg.interval records, and a Flush right
// after the checkpoint adds no bytes (the open segment is empty), so
// flushing there drains exactly one whole segment into the buffer.
func (d *daemon) recorder(sub *trace.FanoutSub, w *trace.Writer, buf *bytes.Buffer) {
	defer d.wg.Done()
	defer sub.Cancel()
	chunks := d.reg.Counter("fstraced.stream.chunks")
	streamBytes := d.reg.Counter("fstraced.stream.bytes")
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	first := d.resumeFrom // a resumed stream's first sealed record index
	inSeg := 0
	seal := func() bool {
		if err := w.Flush(); err != nil {
			return false
		}
		c := &chunk{data: append([]byte(nil), buf.Bytes()...), first: first, n: inSeg}
		buf.Reset()
		first += int64(inSeg)
		inSeg = 0
		chunks.Inc()
		streamBytes.Add(int64(len(c.data)))
		d.hub.seal(c)
		return true
	}
	for {
		n, err := sub.NextBatch(batch)
		for _, e := range batch[:n] {
			if w.Write(e) != nil {
				d.hub.close()
				return
			}
			if inSeg++; inSeg == d.cfg.interval {
				if !seal() {
					d.hub.close()
					return
				}
			}
		}
		if n == 0 {
			if err != io.EOF {
				// Generation failed; what was sealed stays servable.
				d.hub.close()
				return
			}
			break
		}
	}
	if inSeg > 0 {
		seal() // final partial segment, checkpointed by Flush
	}
	d.hub.close()
}

// analysisLoop is the online analysis subscriber: it feeds the rolling
// analyzer.Stream and Validator, and finalizes the stream at end of
// stream — but only when generation actually completed. An aborted run
// (shutdown mid-stream) must leave the stream unfinished: Finish is
// destructive (censored lifetimes, flushed intervals), and the final
// checkpoint has to stay resumable.
func (d *daemon) analysisLoop(sub *trace.FanoutSub) {
	defer d.wg.Done()
	defer sub.Cancel()
	defer close(d.genDone)
	anEvents := d.reg.Counter("fstraced.analysis.events")
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	for {
		n, err := sub.NextBatch(batch)
		if n > 0 {
			d.live.mu.Lock()
			for _, e := range batch[:n] {
				d.live.stream.Feed(e)
				d.live.validator.Check(e)
			}
			d.live.events += int64(n)
			d.live.mu.Unlock()
			anEvents.Add(int64(n))
			continue
		}
		d.live.mu.Lock()
		if err != io.EOF {
			d.live.genErr = err
		}
		if d.genComplete.Load() {
			d.live.final = d.live.stream.Finish()
			d.live.done = true
		} else {
			d.live.aborted = true
		}
		d.live.mu.Unlock()
		return
	}
}

// checkpointLoop writes periodic daemon checkpoints so a crash or kill
// loses at most one snapshot interval of analysis progress. The final
// graceful-shutdown checkpoint is written by the caller of stop, after
// the pipeline has quiesced.
func (d *daemon) checkpointLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.snapshot)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := d.writeCheckpoint(); err != nil && err != errCkptFinished {
				d.reg.Counter("fstraced.checkpoint.errors").Inc()
			}
		case <-d.stopCh:
			return
		}
	}
}

// manifestLoop writes periodic run-manifest snapshots (and a final one
// at shutdown) so a crashed or killed daemon leaves its last progress
// on disk.
func (d *daemon) manifestLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.snapshot)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.writeManifest()
		case <-d.stopCh:
			d.writeManifest()
			return
		}
	}
}

// writeManifest snapshots the registry to cfg.manifest atomically
// (write-temp-then-rename), so a reader never sees a torn manifest.
func (d *daemon) writeManifest() error {
	d.updateGauges()
	m := d.reg.Manifest(obs.RunInfo{
		Command: "fstraced",
		Seed:    d.cfg.seed,
		Config: map[string]string{
			"profile":    d.cfg.profile,
			"duration":   d.cfg.duration.String(),
			"scale":      fmt.Sprintf("%g", d.cfg.scale),
			"shards":     strconv.Itoa(d.cfg.shards),
			"checkpoint": strconv.Itoa(d.cfg.interval),
			"retain":     strconv.Itoa(d.cfg.retain),
			"pace":       fmt.Sprintf("%g", d.cfg.pace),
		},
	})
	data, err := m.JSON()
	if err != nil {
		return err
	}
	tmp := d.cfg.manifest + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.cfg.manifest)
}

// updateGauges publishes the rolling analysis headline into the
// registry, for the manifest and /debug/vars.
func (d *daemon) updateGauges() {
	d.live.mu.Lock()
	events := d.live.events
	errs := len(d.live.validator.Errs())
	done := d.live.done
	d.live.mu.Unlock()
	records, chunks, bytes, subscribers, _ := d.hub.stats()
	d.reg.Gauge("fstraced.analysis.rolling_events").Set(events)
	d.reg.Gauge("fstraced.validator.errors").Set(int64(errs))
	d.reg.Gauge("fstraced.stream.records_sealed").Set(records)
	d.reg.Gauge("fstraced.stream.chunks_sealed").Set(chunks)
	d.reg.Gauge("fstraced.stream.bytes_sealed").Set(bytes)
	d.reg.Gauge("fstraced.stream.subscribers").Set(int64(subscribers))
	d.reg.Gauge("fstraced.stream.evictions").Set(d.hub.evictedCount())
	if done {
		d.reg.Gauge("fstraced.gen.done").Set(1)
	}
}

func (d *daemon) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, `fstraced: live %s trace service (seed %d, %s simulated)
GET  /stream?replay=all|live  v2-framed binary trace stream (chunked; late joiners resync via checkpoints)
GET  /events?n=N              next N live events, text format
POST /ingest?lenient=1        upload a binary trace for online analysis (lenient repairs damage)
GET  /stats                   rolling analysis, validator, ingest log, metrics registry (JSON)
GET  /report                  Section-5 tables and figures of the stream so far
GET  /healthz                 liveness
GET  /debug/vars, /debug/pprof/
`, d.cfg.profile, d.cfg.seed, d.cfg.duration)
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleStream serves the shared v2 byte stream. A client joining
// mid-stream receives the header plus the retained chunk ring
// (?replay=live skips the ring); its reader discards the first retained
// segment at checkpoint verification and decodes everything after with
// exact absolute times — the v2 resync path, reused as a join protocol.
func (d *daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	clients := d.reg.Gauge("fstraced.stream.clients")
	total := d.reg.Counter("fstraced.stream.clients_total")
	prefix, sub := d.hub.subscribe(r.URL.Query().Get("replay") == "live")
	defer d.hub.unsubscribe(sub)
	clients.Add(1)
	total.Inc()
	defer clients.Add(-1)

	// Per-chunk write deadline: a client whose TCP window stays shut
	// past the budget fails its write and the handler exits, instead of
	// pinning a goroutine (and its queue) forever. The budget is several
	// hub stall windows, so eviction (pipeline protection) fires before
	// the deadline (goroutine reaping) does.
	rc := http.NewResponseController(w)
	writeBudget := 4 * d.hub.stall

	w.Header().Set("Content-Type", "application/octet-stream")
	fl, _ := w.(http.Flusher)
	rc.SetWriteDeadline(time.Now().Add(writeBudget))
	if _, err := w.Write(prefix); err != nil {
		return
	}
	if fl != nil {
		fl.Flush()
	}
	ctx := r.Context()
	for {
		select {
		case c, ok := <-sub.ch:
			if !ok {
				return // end of stream: the response ends, the client reader sees EOF
			}
			rc.SetWriteDeadline(time.Now().Add(writeBudget))
			if _, err := w.Write(c.data); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-sub.evicted:
			// The hub gave up on us: we stalled past the budget while
			// chunks backed up. Hang up; the client can rejoin and
			// resync off the checkpoint protocol.
			d.reg.Counter("fstraced.stream.evicted").Inc()
			return
		case <-ctx.Done():
			return
		}
	}
}

// handleEvents streams the next n live events in the text format, via a
// dynamic fan-out subscriber that joins and cancels mid-production.
func (d *daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 64
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	if n > 100000 {
		n = 100000
	}
	sub := d.fan.Subscribe()
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fl, _ := w.(http.Flusher)
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	for n > 0 {
		k, _ := sub.NextBatch(batch[:min(n, len(batch))])
		if k == 0 {
			return // EOF or a failed generation: the stream is over either way
		}
		for _, e := range batch[:k] {
			if _, err := fmt.Fprintf(w, "%s\n", e); err != nil {
				return
			}
		}
		if fl != nil {
			fl.Flush()
		}
		n -= k
	}
}

// handleIngest accepts a binary trace upload and runs it through the
// online analysis pipeline under the shared partial-ingest contract
// (adapt.Input): strict mode rejects any damage, lenient mode
// (?lenient=1) repairs what it can and reports the damage budget
// alongside the analysis headline.
func (d *daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a binary trace", http.StatusMethodNotAllowed)
		return
	}
	// Bounded admission: at most cfg.maxIngest uploads analyze
	// concurrently; beyond that the daemon sheds load with 429 and a
	// Retry-After hint rather than queueing unboundedly. fault.Retry on
	// the client side honors the hint.
	select {
	case d.ingSem <- struct{}{}:
		defer func() { <-d.ingSem }()
	default:
		d.reg.Counter("fstraced.ingest.shed").Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest capacity exhausted; retry later", http.StatusTooManyRequests)
		return
	}
	// An upload that stops sending bytes must not hold its admission
	// slot forever: budget the whole body read.
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(2 * time.Minute))
	lenient := r.URL.Query().Get("lenient") == "1"
	name := r.URL.Query().Get("name")
	if name == "" {
		name = d.ing.nextName()
	}
	fail := func(code int, format string, args ...any) {
		d.reg.Counter("fstraced.ingest.rejected").Inc()
		http.Error(w, fmt.Sprintf(format, args...), code)
	}
	in, err := adapt.NewInput(r.Body, adapt.FormatBSD, false, lenient)
	if err != nil {
		fail(http.StatusBadRequest, "not a trace stream: %v", err)
		return
	}
	s := analyzer.NewStream(analyzer.Options{})
	v := trace.NewValidator(16)
	var events int64
	if err := trace.Each(in, func(e trace.Event) error {
		s.Feed(e)
		v.Check(e)
		events++
		return nil
	}); err != nil {
		fail(http.StatusBadRequest, "%s: decode failed after %d events: %v; retry with ?lenient=1", name, events, err)
		return
	}
	if err := in.Check(); err != nil {
		fail(http.StatusBadRequest, "%s: %v; retry with ?lenient=1", name, err)
		return
	}
	skip, st := in.Skipped(), in.Repairs()
	an := s.Finish()
	sum := ingestSummary{
		Name:             name,
		Lenient:          lenient,
		Events:           events,
		DurationMS:       int64(an.Overall.Duration),
		BytesRead:        an.Overall.BytesRead,
		BytesWritten:     an.Overall.BytesWritten,
		Users:            an.Activity.TotalUsers,
		UnclosedOpens:    v.Finish(),
		ValidationErrors: len(v.Errs()),
		SkippedBytes:     skip.Bytes,
		SkippedRecords:   skip.Records,
		SkippedSegments:  skip.Segments,
		RepairedDropped:  st.Dropped,
		RepairedSynth:    st.Synthesized,
		RepairedRewrites: st.Rewritten,
		AvgThroughput:    an.Activity.AvgThroughput,
	}
	if terr := in.Truncated(); terr != nil {
		sum.Truncated = terr.Error()
	}
	in.Publish(d.reg, "fstraced.ingest.skip", "fstraced.ingest.repair")
	d.reg.Counter("fstraced.ingest.accepted").Inc()
	d.reg.Counter("fstraced.ingest.events").Add(events)
	d.ing.add(sum)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sum)
}

// statsPayload is the GET /stats JSON document.
type statsPayload struct {
	Service struct {
		UptimeMS   int64   `json:"uptime_ms"`
		Profile    string  `json:"profile"`
		Seed       int64   `json:"seed"`
		DurationMS int64   `json:"duration_ms"`
		Scale      float64 `json:"scale"`
		Shards     int     `json:"shards"`
		Checkpoint int     `json:"checkpoint_interval"`
		Retain     int     `json:"retain_chunks"`
		ResumedAt  int64   `json:"resumed_at_record,omitempty"`
	} `json:"service"`
	Generation struct {
		Events        int64  `json:"events"`
		Done          bool   `json:"done"`
		Aborted       bool   `json:"aborted,omitempty"`
		Err           string `json:"err,omitempty"`
		RecordsSealed int64  `json:"records_sealed"`
		ChunksSealed  int64  `json:"chunks_sealed"`
		BytesSealed   int64  `json:"bytes_sealed"`
		Clients       int64  `json:"stream_clients"`
		ClientsTotal  int64  `json:"stream_clients_total"`
	} `json:"generation"`
	Analysis struct {
		Events        int64   `json:"events"`
		Final         bool    `json:"final"`
		DurationMS    int64   `json:"trace_duration_ms"`
		Users         int     `json:"users"`
		BytesRead     int64   `json:"bytes_read"`
		BytesWritten  int64   `json:"bytes_written"`
		EncodedSize   int64   `json:"encoded_size"`
		UnclosedOpens int     `json:"unclosed_opens"`
		AvgThroughput float64 `json:"avg_throughput_bps"`
	} `json:"analysis"`
	Validator struct {
		Errors   int    `json:"errors"`
		FirstBad string `json:"first_bad,omitempty"`
	} `json:"validator"`
	Ingests struct {
		Total  int64           `json:"total"`
		Recent []ingestSummary `json:"recent,omitempty"`
	} `json:"ingests"`
	Metrics *obs.Manifest `json:"metrics"`
}

func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	var p statsPayload
	p.Service.UptimeMS = time.Since(d.started).Milliseconds()
	p.Service.Profile = d.cfg.profile
	p.Service.Seed = d.cfg.seed
	p.Service.DurationMS = int64(d.cfg.duration)
	p.Service.Scale = d.cfg.scale
	p.Service.Shards = d.cfg.shards
	p.Service.Checkpoint = d.cfg.interval
	p.Service.Retain = d.cfg.retain
	p.Service.ResumedAt = d.resumeFrom

	records, chunks, bytes, _, _ := d.hub.stats()
	p.Generation.Events = d.reg.Counter("fstraced.gen.events").Value()
	p.Generation.RecordsSealed = records
	p.Generation.ChunksSealed = chunks
	p.Generation.BytesSealed = bytes
	p.Generation.Clients = d.reg.Gauge("fstraced.stream.clients").Value()
	p.Generation.ClientsTotal = d.reg.Counter("fstraced.stream.clients_total").Value()

	d.live.mu.Lock()
	p.Analysis.Events = d.live.events
	p.Generation.Done = d.live.done
	p.Generation.Aborted = d.live.aborted
	if d.live.genErr != nil {
		p.Generation.Err = d.live.genErr.Error()
	}
	p.Validator.Errors = len(d.live.validator.Errs())
	if fb := d.live.validator.FirstBad(); fb != nil {
		p.Validator.FirstBad = fb.String()
	}
	var an *analyzer.Analysis
	if d.live.final != nil {
		an, p.Analysis.Final = d.live.final, true
	} else {
		an = d.live.stream.Snapshot()
	}
	d.live.mu.Unlock()

	p.Analysis.DurationMS = int64(an.Overall.Duration)
	p.Analysis.Users = an.Activity.TotalUsers
	p.Analysis.BytesRead = an.Overall.BytesRead
	p.Analysis.BytesWritten = an.Overall.BytesWritten
	p.Analysis.EncodedSize = an.Overall.EncodedSize
	p.Analysis.UnclosedOpens = an.Overall.UnclosedOpens
	p.Analysis.AvgThroughput = an.Activity.AvgThroughput

	p.Ingests.Total, p.Ingests.Recent = d.ing.snapshot()

	d.updateGauges()
	p.Metrics = d.reg.Manifest(obs.RunInfo{Command: "fstraced", Seed: d.cfg.seed})

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&p)
}

// renderReport writes the whole Section-5 battery, as fsanalyze does, so
// the daemon's report is byte-comparable with the batch tool's.
func renderReport(w io.Writer, name string, an *analyzer.Analysis) {
	report.Section5(w, report.Traces{Names: []string{name}, Analyses: []*analyzer.Analysis{an}}, nil)
}

func (d *daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	an, final := d.live.analysis()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !final {
		fmt.Fprintf(w, "(rolling analysis: stream still live)\n\n")
	}
	renderReport(w, d.cfg.name(), an)
}
