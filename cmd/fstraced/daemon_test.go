package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/fault"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

// goldenEvents generates the 8h seed-1 A5 trace the daemon under test
// will serve, as the ground truth every client's bytes decode back to.
// Several tests need it, so it is generated once and never mutated.
var (
	goldenOnce   sync.Once
	goldenCached []trace.Event
	goldenErr    error
)

func goldenEvents(t *testing.T) []trace.Event {
	t.Helper()
	goldenOnce.Do(func() {
		_, goldenErr = workload.GenerateStream(
			workload.Config{Profile: "A5", Seed: 1, Duration: 8 * trace.Hour},
			func(e trace.Event) error { goldenCached = append(goldenCached, e); return nil })
	})
	if goldenErr != nil {
		t.Fatalf("golden generate: %v", goldenErr)
	}
	return goldenCached
}

// readStream decodes a full v2 HTTP response body.
func readStream(body io.Reader) ([]trace.Event, trace.SkipStats, error) {
	r, err := trace.NewReader(body)
	if err != nil {
		return nil, trace.SkipStats{}, err
	}
	var events []trace.Event
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	for {
		n, err := r.NextBatch(batch)
		events = append(events, batch[:n]...)
		if n == 0 {
			if err == io.EOF {
				return events, r.Skipped(), nil
			}
			return events, r.Skipped(), err
		}
	}
}

// encodeV2 frames events with the given checkpoint interval.
func encodeV2(t *testing.T, events []trace.Event, interval int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriterV2(&buf, interval)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestDaemonEndToEnd is the issue's acceptance scenario in one run:
// eight concurrent HTTP clients stream the full 8h seed-1 trace
// byte-exactly, a ninth joins mid-stream and resynchronizes through the
// v2 checkpoint protocol, uploads (clean, semantically mangled lenient,
// byte-corrupted strict and lenient) flow through online ingest
// analysis concurrently, and at end of stream the daemon's rolling
// analysis and rendered report match the batch analyzer byte-for-byte.
// Afterwards every daemon and handler goroutine is gone.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("8h workload generation in -short mode")
	}
	golden := goldenEvents(t)
	goldenAn := analyzer.Analyze(golden, analyzer.Options{})

	baseGoroutines := runtime.NumGoroutine()
	cfg := config{
		profile:  "A5",
		seed:     1,
		duration: 8 * trace.Hour,
		scale:    1,
		shards:   1,
		interval: 512,
		retain:   1024, // larger than the total chunk count: joiners at any time can replay from record 0
		// Pace generation to take at least ~2 wall seconds, so the
		// mid-stream joiner below deterministically lands mid-stream.
		pace:     (8 * trace.Hour).Seconds() / 2.0,
		snapshot: time.Second,
	}
	d := newDaemon(cfg)
	srv := httptest.NewServer(d.mux)
	client := srv.Client()
	d.start()

	// Eight concurrent full-stream clients.
	type streamResult struct {
		events []trace.Event
		skip   trace.SkipStats
		err    error
	}
	const nClients = 8
	full := make(chan streamResult, nClients)
	for i := 0; i < nClients; i++ {
		go func() {
			resp, err := client.Get(srv.URL + "/stream")
			if err != nil {
				full <- streamResult{err: err}
				return
			}
			defer resp.Body.Close()
			events, skip, err := readStream(resp.Body)
			full <- streamResult{events: events, skip: skip, err: err}
		}()
	}

	// Wait until all eight are connected and enough chunks have sealed
	// that a live joiner starts well past record 0, while generation
	// (paced to ~2s) is still running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, chunks, _, _, closed := d.hub.stats()
		clients := d.reg.Gauge("fstraced.stream.clients").Value()
		if chunks >= 5 && clients >= nClients {
			break
		}
		if closed {
			t.Fatalf("stream closed before the mid-join window (chunks %d, clients %d)", chunks, clients)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mid-join window: chunks %d, clients %d", chunks, clients)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The mid-stream joiner: live replay only, so its first chunk starts
	// at a nonzero record index and the v2 reader must resync off the
	// chunk's checkpoint, discarding exactly that one segment.
	joiner := make(chan streamResult, 1)
	go func() {
		resp, err := client.Get(srv.URL + "/stream?replay=live")
		if err != nil {
			joiner <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		events, skip, err := readStream(resp.Body)
		joiner <- streamResult{events: events, skip: skip, err: err}
	}()

	// Live text tap through a dynamic fan-out subscriber.
	resp, err := client.Get(srv.URL + "/events?n=5")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		if !strings.Contains(sc.Text(), " ") {
			t.Fatalf("GET /events: malformed line %q", sc.Text())
		}
		lines++
	}
	resp.Body.Close()
	if lines != 5 {
		t.Fatalf("GET /events?n=5 returned %d lines", lines)
	}

	// Concurrent ingest traffic while the stream is still being served.
	var ingests sync.WaitGroup
	upload := golden[:20000]
	post := func(path string, body []byte) (*http.Response, string) {
		resp, err := client.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return nil, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}
	ingests.Add(3)
	go func() { // semantically mangled upload, repaired leniently
		defer ingests.Done()
		m := fault.NewTraceMangler(trace.NewSliceSource(upload),
			fault.MangleConfig{Seed: 6, Drop: 0.02, Duplicate: 0.02, BitFlip: 0.02, Jitter: 0.02})
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		if err := trace.Each(m, func(e trace.Event) error {
			w.Write(e) // the writer refuses flipped kinds; the rest go up
			return nil
		}); err != nil {
			t.Errorf("mangle: %v", err)
			return
		}
		w.Flush()
		resp, body := post("/ingest?lenient=1&name=mangled", buf.Bytes())
		if resp == nil {
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("lenient mangled ingest: status %d: %s", resp.StatusCode, body)
			return
		}
		if !strings.Contains(body, `"name": "mangled"`) {
			t.Errorf("lenient mangled ingest: summary missing name: %s", body)
		}
		// 2% damage on 20k events must have tripped the repair budget.
		if !strings.Contains(body, "repaired_") {
			t.Errorf("lenient mangled ingest reported no repairs: %s", body)
		}
	}()
	corrupt := encodeV2(t, upload, 256)
	corrupt = append([]byte(nil), corrupt...)
	for i := len(corrupt) / 3; i < len(corrupt)/3+16; i++ {
		corrupt[i] ^= 0xFF
	}
	go func() { // byte corruption, strict: rejected
		defer ingests.Done()
		resp, body := post("/ingest?name=corrupt-strict", corrupt)
		if resp == nil {
			return
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("strict corrupted ingest: status %d, want 400: %s", resp.StatusCode, body)
		}
	}()
	go func() { // byte corruption, lenient: accepted with skip accounting
		defer ingests.Done()
		resp, body := post("/ingest?lenient=1&name=corrupt-lenient", corrupt)
		if resp == nil {
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("lenient corrupted ingest: status %d: %s", resp.StatusCode, body)
			return
		}
		if !strings.Contains(body, "skipped_") && !strings.Contains(body, "truncated") {
			t.Errorf("lenient corrupted ingest reported no damage: %s", body)
		}
	}()

	// Collect the streaming clients: each must hold the exact trace.
	for i := 0; i < nClients; i++ {
		res := <-full
		if res.err != nil {
			t.Fatalf("full client %d: %v", i, res.err)
		}
		if !res.skip.Zero() {
			t.Fatalf("full client %d skipped data: %+v", i, res.skip)
		}
		if !reflect.DeepEqual(res.events, golden) {
			t.Fatalf("full client %d: got %d events, want %d, or contents differ",
				i, len(res.events), len(golden))
		}
	}
	jr := <-joiner
	if jr.err != nil {
		t.Fatalf("mid-stream joiner: %v", jr.err)
	}
	if jr.skip.Segments != 1 {
		t.Fatalf("mid-stream joiner resync: skipped %+v, want exactly 1 segment", jr.skip)
	}
	if len(jr.events) == 0 || len(jr.events) >= len(golden) {
		t.Fatalf("mid-stream joiner got %d of %d events, want a proper suffix", len(jr.events), len(golden))
	}
	if suffix := golden[len(golden)-len(jr.events):]; !reflect.DeepEqual(jr.events, suffix) {
		t.Fatalf("mid-stream joiner suffix mismatch after resync (%d events)", len(jr.events))
	}
	ingests.Wait()

	// End of stream: the online analysis must equal the batch analyzer's
	// result exactly, and the served report must match a locally
	// rendered one byte-for-byte.
	<-d.genDone
	d.live.mu.Lock()
	final, genErr, verrs := d.live.final, d.live.genErr, len(d.live.validator.Errs())
	d.live.mu.Unlock()
	if genErr != nil {
		t.Fatalf("generation error: %v", genErr)
	}
	if verrs != 0 {
		t.Fatalf("validator flagged %d errors on the generated stream", verrs)
	}
	if !reflect.DeepEqual(final, goldenAn) {
		t.Fatalf("online analysis at end of stream differs from batch Analyze")
	}
	resp, err = client.Get(srv.URL + "/report")
	if err != nil {
		t.Fatalf("GET /report: %v", err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var local bytes.Buffer
	renderReport(&local, "a5", goldenAn)
	if !bytes.Equal(served, local.Bytes()) {
		t.Fatalf("served report (%d bytes) differs from batch-rendered report (%d bytes)",
			len(served), local.Len())
	}
	resp, err = client.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"done": true`, `"final": true`, fmt.Sprintf(`"events": %d`, len(golden))} {
		if !strings.Contains(string(stats), want) {
			t.Fatalf("GET /stats missing %q:\n%s", want, stats)
		}
	}

	// Shutdown, then the goroutine fence: everything the daemon and its
	// handlers started must exit.
	srv.Close()
	client.CloseIdleConnections()
	d.stop()
	fence := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		} else if time.Now().After(fence) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				n, baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonStopMidStream: stopping the daemon while clients are
// connected and generation is running must terminate cleanly — the
// producer aborts, streams end, and no goroutine survives.
func TestDaemonStopMidStream(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	cfg := config{
		profile:  "A5",
		seed:     3,
		duration: 8 * trace.Hour,
		scale:    1,
		shards:   1,
		interval: 256,
		retain:   8,
		pace:     (8 * trace.Hour).Seconds() / 30.0, // ~30s if never stopped
		snapshot: time.Second,
	}
	d := newDaemon(cfg)
	srv := httptest.NewServer(d.mux)
	client := srv.Client()
	d.start()

	done := make(chan error, 1)
	go func() {
		resp, err := client.Get(srv.URL + "/stream")
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, chunks, _, _, _ := d.hub.stats(); chunks >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no chunks sealed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	d.stopped.Store(true) // abort generation: the stream ends early but cleanly
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("client read: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after stop")
	}
	srv.Close()
	client.CloseIdleConnections()
	d.stop()
	fence := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		} else if time.Now().After(fence) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				n, baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
