package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// goroutineFence fails the test if the goroutine count does not return
// to near base within ten seconds.
func goroutineFence(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonCheckpointResumeRoundTrip is the tentpole's acceptance test
// for the clean path: a daemon is stopped mid-run, writes its graceful
// final checkpoint, and a second daemon resumes from it. The resumed
// stream announces the pre-stop records to a fresh client via the
// resume checkpoint (exact loss accounting: skip.Records equals the
// resume position, in exactly one segment), the remainder decodes
// byte-exactly, and the final analysis and report are byte-identical to
// an uninterrupted batch run.
func TestDaemonCheckpointResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("8h workload generation in -short mode")
	}
	golden := goldenEvents(t)
	goldenAn := analyzer.Analyze(golden, analyzer.Options{})
	baseGoroutines := runtime.NumGoroutine()
	state := filepath.Join(t.TempDir(), "fstraced.state")
	cfg := config{
		profile:  "A5",
		seed:     1,
		duration: 8 * trace.Hour,
		scale:    1,
		shards:   1,
		interval: 512,
		retain:   1 << 20,                          // effectively unbounded: the resumed stream replays in full
		pace:     (8 * trace.Hour).Seconds() / 3.0, // ~3s wall if never stopped
		snapshot: 25 * time.Millisecond,
		state:    state,
	}
	d1 := newDaemon(cfg)
	d1.start()
	waitUntil(t, 20*time.Second, "a mid-run periodic checkpoint", func() bool {
		st, err := loadCheckpoint(state, cfg)
		return err == nil && st.events > 1000
	})
	d1.stop()
	d1.live.mu.Lock()
	aborted, stoppedAt := d1.live.aborted, d1.live.events
	d1.live.mu.Unlock()
	if !aborted {
		t.Fatal("daemon stopped mid-run did not mark the analysis aborted")
	}
	if stoppedAt <= 0 || stoppedAt >= int64(len(golden)) {
		t.Fatalf("stopped at %d of %d events; not mid-run", stoppedAt, len(golden))
	}
	// The graceful-shutdown checkpoint captures the exact stop position.
	if err := d1.writeCheckpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	st, err := loadCheckpoint(state, cfg)
	if err != nil {
		t.Fatalf("load final checkpoint: %v", err)
	}
	if st.events != stoppedAt {
		t.Fatalf("final checkpoint at %d, analysis stopped at %d", st.events, stoppedAt)
	}

	// Resume at full speed and stream the remainder to a fresh client.
	cfg2 := cfg
	cfg2.pace = 0
	d2 := newDaemon(cfg2)
	d2.restore(st)
	srv := httptest.NewServer(d2.mux)
	client := srv.Client()
	d2.start()
	resp, err := client.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatalf("GET /stream: %v", err)
	}
	events, skip, err := readStream(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read resumed stream: %v", err)
	}
	if skip.Records != st.events || skip.Segments != 1 {
		t.Fatalf("resumed stream skip = %+v, want exactly %d records in 1 segment", skip, st.events)
	}
	if !reflect.DeepEqual(events, golden[st.events:]) {
		t.Fatalf("resumed stream: got %d events, want the %d-event suffix from record %d",
			len(events), len(golden)-int(st.events), st.events)
	}

	<-d2.genDone
	d2.live.mu.Lock()
	final, done, v := d2.live.final, d2.live.done, d2.live.validator
	d2.live.mu.Unlock()
	if !done || final == nil {
		t.Fatal("resumed run did not finish")
	}
	// The resumed validator was rebuilt from the regenerated prefix, not
	// restored: it must equal one that checked the whole trace.
	want := trace.NewValidator(16)
	for _, e := range golden {
		want.Check(e)
	}
	if v.Stats() != want.Stats() || v.Finish() != want.Finish() ||
		!reflect.DeepEqual(v.Errs(), want.Errs()) || !reflect.DeepEqual(v.FirstBad(), want.FirstBad()) {
		t.Fatalf("resumed validator: counts %+v, %d unclosed, %d errors, first bad %v; uninterrupted: %+v, %d, %d, %v",
			v.Stats(), v.Finish(), len(v.Errs()), v.FirstBad(),
			want.Stats(), want.Finish(), len(want.Errs()), want.FirstBad())
	}
	if !reflect.DeepEqual(final, goldenAn) {
		t.Fatal("resumed final analysis differs from an uninterrupted batch Analyze")
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
		t.Fatalf("resumed report (%d bytes) differs from batch report (%d bytes)",
			len(served), local.Len())
	}
	resp, err = client.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stats), `"resumed_at_record"`) {
		t.Fatalf("GET /stats does not report the resume position:\n%s", stats)
	}
	// The stop-time drain means analysis position equals events produced,
	// so the restored counter plus the resumed suffix covers the trace
	// exactly once.
	if n := d2.reg.Counter("fstraced.gen.events").Value(); n != int64(len(golden)) {
		t.Fatalf("gen.events = %d after resume, want %d", n, len(golden))
	}
	// A finished run has nothing left to checkpoint; the last resumable
	// file stays in place.
	if err := d2.writeCheckpoint(); err != errCkptFinished {
		t.Fatalf("checkpoint after finish: %v, want errCkptFinished", err)
	}

	srv.Close()
	client.CloseIdleConnections()
	d2.stop()
	goroutineFence(t, baseGoroutines)
}

// ckptBlob builds a valid mid-run checkpoint without running a full
// daemon: a few hundred generated events fed straight into the live
// analysis, then serialized.
func ckptBlob(t testing.TB, cfg config) []byte {
	d := newDaemon(cfg)
	fed := 0
	workload.GenerateStream(
		workload.Config{
			Profile:   cfg.profile,
			Seed:      cfg.seed,
			Duration:  cfg.duration,
			UserScale: cfg.scale,
			Shards:    cfg.shards,
		},
		func(e trace.Event) error {
			d.live.stream.Feed(e)
			d.live.events++
			if fed++; fed >= 500 {
				return errStopped
			}
			return nil
		})
	if fed == 0 {
		t.Fatalf("workload generated no events")
	}
	blob, err := d.checkpointBytes()
	if err != nil {
		t.Fatalf("checkpointBytes: %v", err)
	}
	return blob
}

// TestDecodeCheckpointRejects: resume refuses a checkpoint from a
// different run configuration or of another version, and corrupt or
// truncated files error out without panicking — and without a wrong
// accept.
func TestDecodeCheckpointRejects(t *testing.T) {
	cfg := config{profile: "A5", seed: 5, duration: trace.Hour, scale: 1, shards: 1, interval: 64}
	blob := ckptBlob(t, cfg)
	if _, err := decodeCheckpoint(blob, cfg); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	// A version-1 checkpoint (which also carried the validator), with a
	// valid CRC: refused by version, not resumed.
	v1 := append([]byte(nil), blob[:len(blob)-4]...)
	if v1[len(ckptMagic)] != ckptVersion {
		t.Fatalf("version byte %d, want %d", v1[len(ckptMagic)], ckptVersion)
	}
	v1[len(ckptMagic)] = 1
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	if _, err := decodeCheckpoint(v1, cfg); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 checkpoint: %v, want a refusal naming version 1", err)
	}
	mismatches := map[string]config{
		"profile":  {profile: "A4", seed: 5, duration: trace.Hour, scale: 1, shards: 1, interval: 64},
		"seed":     {profile: "A5", seed: 6, duration: trace.Hour, scale: 1, shards: 1, interval: 64},
		"duration": {profile: "A5", seed: 5, duration: 2 * trace.Hour, scale: 1, shards: 1, interval: 64},
		"scale":    {profile: "A5", seed: 5, duration: trace.Hour, scale: 2, shards: 1, interval: 64},
		"shards":   {profile: "A5", seed: 5, duration: trace.Hour, scale: 1, shards: 2, interval: 64},
		"interval": {profile: "A5", seed: 5, duration: trace.Hour, scale: 1, shards: 1, interval: 128},
	}
	for name, bad := range mismatches {
		if _, err := decodeCheckpoint(blob, bad); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Fatalf("%s mismatch not refused: %v", name, err)
		}
	}
	for cut := 0; cut < len(blob); cut += 13 {
		if _, err := decodeCheckpoint(blob[:cut], cfg); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(blob); i += 17 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x20
		if _, err := decodeCheckpoint(mut, cfg); err == nil {
			t.Fatalf("bit flip at %d accepted past the CRC", i)
		}
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes must never panic the decoder.
// Each input is decoded twice: as it is, and with its last 4 bytes
// replaced by the CRC32 of the rest. A mutant almost never carries a
// valid CRC, so only the second decode takes it past the CRC check to
// the version, fingerprint, stream, ingest-log and counter checks.
func FuzzDecodeCheckpoint(f *testing.F) {
	cfg := config{profile: "A5", seed: 5, duration: trace.Hour, scale: 1, shards: 1, interval: 64}
	blob := ckptBlob(f, cfg)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("FSDCKPT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeCheckpoint(data, cfg)
		if len(data) >= 4 {
			payload := append([]byte(nil), data[:len(data)-4]...)
			decodeCheckpoint(binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload)), cfg)
		}
	})
}
