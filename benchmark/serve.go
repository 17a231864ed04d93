package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

// The serve workload drives fstraced with two closed-loop HTTP clients.
//
// Set-up: a fresh daemon streams to client A, which decodes records up
// to the middle of the trace and stalls there; the benchmark then sends
// SIGTERM, A hangs up once the daemon is shutting down, and the graceful
// shutdown writes the checkpoint. The set-up is timed from launch to
// exit.
//
// Repetition: a copy of the checkpoint is resumed with -resume. Client A
// streams /stream to EOF and checks every record against an in-process
// reference; once A has its first record, client B joins with
// replay=all, reads to its first record, hangs up, waits joinPause and
// joins again, until A reaches EOF. A repetition is timed from launch to
// A's EOF.
//
// Failures: a record that differs from the reference, inexact skip
// accounting, a resume position that differs from the checkpoint's, a
// refused or failed join, and any stall eviction.
const (
	joinPause = 20 * time.Millisecond
	// daemonWait bounds how long the daemon may take to start serving
	// and to exit after SIGTERM.
	daemonWait = 60 * time.Second
)

type serveRun struct {
	r      *runner
	in     [inputs]serveInput
	client *http.Client

	ttfr    []float64 // join latencies, ms
	resumes []float64 // launch to A's first record, s
}

// serveInput is one input's reference stream and checkpoint.
type serveInput struct {
	ref      []uint64 // eventHash of every record the daemon will stream
	state    string   // the checkpoint the set-up left
	resumeAt int64    // its record count
}

func startServe(r *runner) (phases, error) {
	s := &serveRun{
		r: r,
		// Every join is a fresh connection, as a late-joining client's is.
		client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	return phases{setup: s.setup, rep: s.rep, info: s.info}, nil
}

func (s *serveRun) info() map[string]stat {
	info := map[string]stat{"serve.resume_s": summarize("s", s.resumes)}
	if len(s.ttfr) > 0 {
		p50 := summarize("ms", s.ttfr)
		info["serve.join_ttfr_p50_ms"] = p50
		info["serve.join_ttfr_p90_ms"] = stat{Value: percentile(s.ttfr, 90), Unit: "ms", N: p50.N}
	}
	return info
}

// wireForm keeps the fields trace.Event defines for the event's kind.
// Sharded generation leaves bookkeeping in the others, which no trace
// format carries.
func wireForm(e trace.Event) trace.Event {
	w := trace.Event{Time: e.Time, Kind: e.Kind}
	switch e.Kind {
	case trace.KindCreate, trace.KindOpen:
		w.OpenID, w.File, w.User, w.Mode, w.Size = e.OpenID, e.File, e.User, e.Mode, e.Size
	case trace.KindClose:
		w.OpenID, w.NewPos = e.OpenID, e.NewPos
	case trace.KindSeek:
		w.OpenID, w.OldPos, w.NewPos = e.OpenID, e.OldPos, e.NewPos
	case trace.KindUnlink:
		w.File = e.File
	case trace.KindTruncate:
		w.File, w.Size = e.File, e.Size
	case trace.KindExec:
		w.File, w.User, w.Size = e.File, e.User, e.Size
	}
	return w
}

// eventHash fingerprints one record for the reference comparison.
func eventHash(e trace.Event) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{uint64(e.Time), uint64(e.Kind), uint64(e.OpenID), uint64(e.File),
		uint64(e.User), uint64(e.Mode), uint64(e.Size), uint64(e.OldPos), uint64(e.NewPos)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// setup builds input i's reference stream in-process (not timed), then
// times the run that leaves the checkpoint.
func (s *serveRun) setup(i int) (sample, error) {
	in := &s.in[i]
	in.ref = in.ref[:0]
	if _, err := workload.GenerateStream(workload.Config{
		Profile: "A5", Seed: s.r.seed(i), Duration: trace.Time(s.r.simDuration().Milliseconds()),
		UserScale: 8, Shards: 2,
	}, func(e trace.Event) error {
		in.ref = append(in.ref, eventHash(wireForm(e)))
		return nil
	}); err != nil {
		return sample{}, err
	}
	state := filepath.Join(s.r.dir, fmt.Sprintf("setup-%d.state", i))
	t0 := time.Now()
	d, err := s.start(i, "-state", state)
	if err != nil {
		return sample{wall: time.Since(t0)}, err
	}
	// Client A stalls at the middle of the trace with its connection
	// open, so backpressure keeps the daemon no further ahead than its
	// buffers reach until SIGTERM has stopped generation; only then does
	// A hang up. Hanging up first would let the daemon run on, and finish
	// a short trace before the signal lands.
	half := int64(len(in.ref) / 2)
	var rss int64
	var rssErr, termErr error
	a := s.stream(d.url, in.ref, half, nil, func() {
		rss, rssErr = peakRSS(d.cmd.Process.Pid)
		termErr = d.terminate()
	})
	stopErr := errors.Join(termErr, d.stop())
	smp := sample{wall: time.Since(t0), rssKB: rss}
	if err := errors.Join(a.err, rssErr, stopErr); err != nil {
		return smp, err
	}
	if a.from+a.decoded < half {
		return smp, fmt.Errorf("setup: client A stopped at record %d, before %d", a.from+a.decoded, half)
	}
	if !d.printed("state checkpointed") {
		return smp, errors.New("setup: fstraced did not report its checkpoint")
	}
	n, err := checkpointRecords(state)
	if err != nil {
		return smp, err
	}
	if n <= 0 || n >= int64(len(in.ref)) {
		return smp, fmt.Errorf("setup: checkpoint at record %d of %d", n, len(in.ref))
	}
	in.state, in.resumeAt = state, n
	return smp, nil
}

// rep resumes a copy of input i's checkpoint and times it to client A's
// EOF.
func (s *serveRun) rep(i int) (sample, error) {
	in := &s.in[i]
	state := filepath.Join(s.r.dir, "resume.state")
	if err := copyFile(in.state, state); err != nil {
		return sample{}, err
	}
	t0 := time.Now()
	d, err := s.start(i, "-state", state, "-resume")
	if err != nil {
		return sample{wall: time.Since(t0)}, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var joins []joinResult
	a := s.stream(d.url, in.ref, 0, func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			joins = s.joinLoop(d.url, in.ref, stop)
		}()
	}, nil)
	close(stop)
	wg.Wait()
	if a.end.IsZero() { // client A failed
		a.end = time.Now()
	}
	smp := sample{wall: a.end.Sub(t0)}
	st, statsErr := s.stats(d.url)
	rss, rssErr := peakRSS(d.cmd.Process.Pid)
	stopErr := d.stop()
	smp.rssKB = rss
	for _, j := range joins {
		s.r.tally.record(j.err)
		if j.err == nil {
			s.ttfr = append(s.ttfr, j.ttfr.Seconds()*1000)
		}
	}
	if err := errors.Join(a.err, statsErr, rssErr, stopErr); err != nil {
		return smp, err
	}
	s.resumes = append(s.resumes, a.first.Sub(t0).Seconds())
	total := int64(len(in.ref))
	switch {
	case a.from != in.resumeAt:
		return smp, fmt.Errorf("resume: client A's first record is %d, the checkpoint's is %d", a.from, in.resumeAt)
	case a.from+a.decoded != total:
		return smp, fmt.Errorf("resume: client A skipped %d and decoded %d of %d records", a.from, a.decoded, total)
	case st.Service.ResumedAt != in.resumeAt:
		return smp, fmt.Errorf("resume: /stats resumed_at_record %d, checkpoint %d", st.Service.ResumedAt, in.resumeAt)
	case !d.printed(fmt.Sprintf("resuming at record %d ", in.resumeAt)):
		return smp, errors.New("resume: fstraced did not announce the checkpoint's position")
	case st.Generation.RecordsSealed != total-in.resumeAt:
		return smp, fmt.Errorf("resume: %d records sealed after the resume, want %d", st.Generation.RecordsSealed, total-in.resumeAt)
	case st.Validator.Errors != 0:
		return smp, fmt.Errorf("resume: %d validation errors", st.Validator.Errors)
	case st.Metrics.Gauges["fstraced.stream.evictions"] != 0:
		return smp, fmt.Errorf("resume: %d stream clients evicted", st.Metrics.Gauges["fstraced.stream.evictions"])
	}
	return smp, nil
}

// daemon is one running fstraced.
type daemon struct {
	cmd       *exec.Cmd
	url       string
	stderr    bytes.Buffer
	signalled bool          // SIGTERM sent
	stopping  chan struct{} // closed once the daemon reports it is shutting down
	exited    chan struct{} // closed once the process has been waited for
	err       error         // from Wait; read after exited

	mu    sync.Mutex
	lines []string // standard output so far
}

// start launches fstraced for input i on a free port and waits until it
// serves.
func (s *serveRun) start(i int, extra ...string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-profile", "A5", "-seed", s.r.seedArg(i),
		"-duration", s.r.simDuration().String(), "-scale", "8", "-shards", "2",
		"-retain", "64", "-stall", "60s",
		// Only the shutdown checkpoint: no periodic one mid-run.
		"-snapshot", "1h"}
	d := &daemon{cmd: s.r.command("fstraced", append(args, extra...)...),
		stopping: make(chan struct{}), exited: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if i := strings.LastIndex(line, " on http://"); i >= 0 && strings.HasPrefix(line, "fstraced: serving ") {
				addr <- strings.TrimSuffix(line[i+len(" on "):], "/")
			}
			if strings.HasSuffix(line, ", shutting down") {
				close(d.stopping)
			}
		}
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.url = <-addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("fstraced exited before serving: %v: %s", d.err, strings.TrimSpace(d.stderr.String()))
	case <-time.After(daemonWait):
		d.kill()
		return nil, errors.New("fstraced did not start serving in time")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// terminate sends SIGTERM, once, and waits until the daemon reports that
// it is shutting down, which stops generation, or exits. A daemon that
// does neither in time is killed.
func (d *daemon) terminate() error {
	if !d.signalled {
		d.signalled = true
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			d.kill()
			return err
		}
	}
	select {
	case <-d.stopping:
	case <-d.exited:
	case <-time.After(daemonWait):
		d.kill()
		return errors.New("fstraced did not begin shutting down after SIGTERM")
	}
	return nil
}

// stop terminates the daemon and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.terminate(); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(daemonWait):
		d.kill()
		return errors.New("fstraced did not exit after SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("fstraced: %v: %s", d.err, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

// printed reports whether a line of the daemon's output contains s.
func (d *daemon) printed(s string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.lines {
		if strings.Contains(l, s) {
			return true
		}
	}
	return false
}

// streamResult is what client A saw.
type streamResult struct {
	first, end time.Time
	from       int64 // index of the first decoded record
	decoded    int64
	err        error
}

// stream is client A: it reads /stream with replay=all and checks every
// record against the reference. onFirst runs at the first record. With
// stopAt > 0 it stops reading once the stream reaches that record, runs
// atStop with the connection still open, and hangs up.
func (s *serveRun) stream(url string, ref []uint64, stopAt int64, onFirst, atStop func()) (a streamResult) {
	resp, err := s.client.Get(url + "/stream?replay=all")
	if err != nil {
		a.err = err
		return a
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		a.err = fmt.Errorf("client A: %s", resp.Status)
		return a
	}
	rdr, err := trace.NewReader(resp.Body)
	if err != nil {
		a.err = fmt.Errorf("client A: %v", err)
		return a
	}
	buf := make([]trace.Event, batchSize)
	for {
		n, err := rdr.NextBatch(buf)
		if n > 0 && a.decoded == 0 {
			a.first, a.from = time.Now(), rdr.Skipped().Records
			if onFirst != nil {
				onFirst()
			}
		}
		for _, e := range buf[:n] {
			if i := a.from + a.decoded; i >= int64(len(ref)) || ref[i] != eventHash(e) {
				a.err = fmt.Errorf("client A: record %d differs from the reference", i)
				return a
			}
			a.decoded++
		}
		if stopAt > 0 && a.from+a.decoded >= stopAt {
			atStop()
			return a
		}
		if n == 0 {
			if err != io.EOF {
				a.err = fmt.Errorf("client A: %v", err)
				return a
			}
			break
		}
	}
	a.end = time.Now()
	if a.decoded == 0 {
		a.err = errors.New("client A: empty stream")
	} else if sk := rdr.Skipped().Records; sk != a.from {
		a.err = fmt.Errorf("client A: %d records lost mid-stream", sk-a.from)
	}
	return a
}

type joinResult struct {
	ttfr time.Duration
	err  error
}

// joinLoop is client B: closed-loop late joins until stop closes.
func (s *serveRun) joinLoop(url string, ref []uint64, stop <-chan struct{}) []joinResult {
	var out []joinResult
	for {
		select {
		case <-stop:
			return out
		default:
		}
		t := time.Now()
		err := s.join(url, ref)
		out = append(out, joinResult{ttfr: time.Since(t), err: err})
		select {
		case <-stop:
			return out
		case <-time.After(joinPause):
		}
	}
}

// join reads one record off a fresh subscription and checks it.
func (s *serveRun) join(url string, ref []uint64) error {
	resp, err := s.client.Get(url + "/stream?replay=all")
	if err != nil {
		return fmt.Errorf("join: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("join: %s", resp.Status)
	}
	rdr, err := trace.NewReader(resp.Body)
	if err != nil {
		return fmt.Errorf("join: %v", err)
	}
	var one [1]trace.Event
	if n, err := rdr.NextBatch(one[:]); n == 0 {
		return fmt.Errorf("join: no record: %v", err)
	}
	if i := rdr.Skipped().Records; i >= int64(len(ref)) || ref[i] != eventHash(one[0]) {
		return fmt.Errorf("join: record %d differs from the reference", i)
	}
	return nil
}

// daemonStats is the part of GET /stats the checks read.
type daemonStats struct {
	Service struct {
		ResumedAt int64 `json:"resumed_at_record"`
	} `json:"service"`
	Generation struct {
		RecordsSealed int64 `json:"records_sealed"`
	} `json:"generation"`
	Validator struct {
		Errors int `json:"errors"`
	} `json:"validator"`
	Metrics struct {
		Gauges map[string]int64 `json:"gauges"`
	} `json:"metrics"`
}

func (s *serveRun) stats(url string) (daemonStats, error) {
	var st daemonStats
	resp, err := s.client.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkpointRecords reads the resume position out of a daemon
// checkpoint: magic, version, the configuration fingerprint (profile,
// seed, duration, scale, shards, interval), then the record count. The
// whole file is CRC-checked first.
func checkpointRecords(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	bad := fmt.Errorf("%s: not a valid daemon checkpoint", path)
	if len(data) < 12 || string(data[:8]) != "FSDCKPT1" ||
		crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, bad
	}
	b := data[8 : len(data)-4]
	uvarint := func() uint64 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			b = nil
			return 0
		}
		b = b[n:]
		return x
	}
	uvarint() // version
	if l := uvarint(); uint64(len(b)) >= l {
		b = b[l:] // profile
	}
	uvarint() // seed
	uvarint() // duration
	if len(b) < 8 {
		return 0, bad
	}
	b = b[8:] // scale
	uvarint() // shards
	uvarint() // checkpoint interval
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, bad
	}
	return x, nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
