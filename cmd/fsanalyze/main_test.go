package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

func writeTestTrace(t *testing.T, text bool) string {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "C4", Seed: 8, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c4.trace")
	if text {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Events {
			if _, err := fmt.Fprintln(f, e); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	} else if err := trace.WriteFile(path, res.Events); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalysis(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III.", "Table IV.", "Table V.", "Figure 3.", "Cross-user"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// failWriter fails every write, as a full disk or a closed pipe does.
type failWriter struct{}

var errWriteFailed = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestRunWriteErrorReturned: output that cannot be written is an error,
// not a silent exit 0.
func TestRunWriteErrorReturned(t *testing.T) {
	path := writeTestTrace(t, false)
	for _, opts := range []options{{only: "tableIII"}, {validate: true}} {
		if err := run(failWriter{}, []string{path}, opts); !errors.Is(err, errWriteFailed) {
			t.Errorf("run %+v into a failing writer = %v, want the write error", opts, err)
		}
	}
}

// TestRunOnlyTransfers: -only transfers on a native trace builds the
// tape and prints the transfer summary, and nothing else.
func TestRunOnlyTransfers(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{only: "transfers"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Transfer summary.") {
		t.Errorf("-only transfers printed no transfer summary:\n%s", out)
	}
	if strings.Contains(out, "Table III.") {
		t.Error("-only transfers printed more than the requested section")
	}
}

func TestRunTextInput(t *testing.T) {
	path := writeTestTrace(t, true)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{text: true, only: "tableIII"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table III.") {
		t.Errorf("text input analysis failed:\n%s", buf.String())
	}
	// Binary loader on a text file errors cleanly.
	if err := run(&buf, []string{path}, options{}); err == nil {
		t.Errorf("binary loader accepted text input")
	}
}

func TestRunValidate(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{validate: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 validation errors") {
		t.Errorf("validate output: %s", buf.String())
	}
}

func TestRunTopFiles(t *testing.T) {
	path := writeTestTrace(t, false)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{only: "tableIII", top: 5}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Busiest files") {
		t.Errorf("top files table missing")
	}
}

func TestRunWindow(t *testing.T) {
	path := writeTestTrace(t, false)
	var full, half bytes.Buffer
	if err := run(&full, []string{path}, options{only: "tableIII"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&half, []string{path}, options{only: "tableIII", from: 5 * time.Minute, to: 15 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if full.String() == half.String() {
		t.Errorf("windowing had no effect")
	}
	if !strings.Contains(half.String(), "Table III.") {
		t.Errorf("windowed analysis failed")
	}
}

// TestRunRejectsBadWindow: an empty window, a negative offset or a
// negative -top is an error, raised before any file is opened (the path
// does not exist), for native and foreign input alike.
func TestRunRejectsBadWindow(t *testing.T) {
	for _, opts := range []options{
		{from: 2 * time.Hour, to: time.Hour},
		{from: time.Hour, to: time.Hour},
		{to: -time.Hour},
		{from: -time.Minute},
		{from: -time.Minute, to: time.Hour},
		{top: -1},
	} {
		for _, format := range []string{"bsd", "blockcsv"} {
			opts.format = format
			var buf bytes.Buffer
			err := run(&buf, []string{"/nonexistent.trace"}, opts)
			if err == nil || errors.Is(err, os.ErrNotExist) {
				t.Errorf("run %+v = %v, want a flag error before opening the file", opts, err)
			}
			if buf.Len() != 0 {
				t.Errorf("run %+v printed %q", opts, buf.String())
			}
		}
	}
}

func TestRunMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"/nonexistent.trace"}, options{}); err == nil {
		t.Errorf("missing file accepted")
	}
}

// writeDamagedV2Trace writes a checkpointed trace with one segment
// destroyed, so strict ingestion sees a partial read and lenient
// ingestion repairs around it.
func writeDamagedV2Trace(t *testing.T) string {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "C4", Seed: 8, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriterV2(&buf, 512)
	for _, e := range res.Events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := len(data) / 2; i < len(data)/2+16; i++ {
		data[i] = 0xAA
	}
	path := filepath.Join(t.TempDir(), "damaged.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunPartialIngestExit: the partial-ingest contract at the exit
// path, for analysis and -validate alike — a damaged trace fails a
// strict run and succeeds (with repairs) under -lenient, where
// -validate checks the repaired stream the analysis reads.
func TestRunPartialIngestExit(t *testing.T) {
	path := writeDamagedV2Trace(t)
	for _, c := range []struct {
		opts options
		want string
	}{
		{options{only: "tableIII"}, "Table III."},
		{options{validate: true}, " 0 validation errors"},
	} {
		var buf bytes.Buffer
		err := run(&buf, []string{path}, c.opts)
		if err == nil {
			t.Fatalf("%+v: strict run accepted a partial ingest", c.opts)
		}
		if !strings.Contains(err.Error(), "partial ingest") || !strings.Contains(err.Error(), "-lenient") {
			t.Fatalf("%+v: partial-ingest error not actionable: %v", c.opts, err)
		}
		buf.Reset()
		c.opts.lenient = true
		if err := run(&buf, []string{path}, c.opts); err != nil {
			t.Fatalf("%+v: lenient run failed: %v", c.opts, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%+v: lenient run lacks %q:\n%s", c.opts, c.want, buf.String())
		}
	}
}

// TestRunLenientTruncatedV1: a truncated v1 stream (no checkpoints to
// resync at) still analyzes under -lenient, ending at the damage.
func TestRunLenientTruncatedV1(t *testing.T) {
	full := writeTestTrace(t, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "truncated.trace")
	if err := os.WriteFile(path, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{only: "tableIII"}); err == nil {
		t.Fatal("strict run accepted a truncated v1 trace")
	}
	buf.Reset()
	if err := run(&buf, []string{path}, options{only: "tableIII", lenient: true}); err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	if !strings.Contains(buf.String(), "Table III.") {
		t.Errorf("lenient run produced no analysis:\n%s", buf.String())
	}
}

// TestRunValidateReportsFirstBad: -validate shows the offending record
// verbatim and the per-kind tally.
func TestRunValidateReportsFirstBad(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, Mode: trace.ReadOnly, Size: 10},
		{Time: 5, Kind: trace.KindClose, OpenID: 42, NewPos: 7},
	}
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := trace.WriteFile(path, events); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{path}, options{validate: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "first failing event") || !strings.Contains(out, "close") {
		t.Errorf("first failing event not reported verbatim:\n%s", out)
	}
	if !strings.Contains(out, "1 open") || !strings.Contains(out, "1 close") {
		t.Errorf("per-kind tally missing:\n%s", out)
	}
	if !strings.Contains(out, "1 validation errors") {
		t.Errorf("validation summary missing:\n%s", out)
	}
}
