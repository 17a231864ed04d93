package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bsdtrace/internal/trace"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-profile", "nope"},          // unknown machine profile
		{"-bogus"},                    // unknown flag
		{"-duration", "not-a-time"},   // unparsable duration
		{"stray-positional-argument"}, // no positional args accepted
		{"-o", t.TempDir(), "-q"},     // output path is a directory
		{"-profile", "A5,nope", "-q"}, // bad profile inside a merge list
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// TestRunRejectsBadValuesKeepsOutput: flag values that parse but make
// no sense are refused before the output file is opened, so an existing
// -o file survives intact.
func TestRunRejectsBadValuesKeepsOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "existing.trace")
	const keep = "an earlier trace"
	for _, args := range [][]string{
		{"-profile", "A6"},
		{"-profile", "A5,A6"},
		{"-shards", "-2"},
		{"-duration", "0"},
		{"-duration", "-1h"},
		{"-duration", "500us"},
		{"-scale", "-3"},
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-checkpoint", "-5", "-v2"},
		{"-text", "-v2"},
		{"-checkpoint", "7"},
	} {
		if err := os.WriteFile(out, []byte(keep), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(append(args, "-o", out, "-q"), &buf); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != keep {
			t.Errorf("run(%q) changed the existing output file: %d bytes, want %d (%v)", args, len(got), len(keep), err)
		}
	}
}

// readTrace decodes a whole binary trace file.
func readTrace(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	return trace.ReadSource(r)
}

// The binary path: whatever fstrace writes, trace.Reader reads back
// verbatim, and the summary describes it.
func TestRunBinaryRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a5.trace")
	var buf bytes.Buffer
	if err := run([]string{"-profile", "A5", "-duration", "5m", "-seed", "3", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	events, err := readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace written")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("event %d out of order", i)
		}
	}
	summary := buf.String()
	for _, want := range []string{"wrote " + out, "profile A5", "events:", "kernel moved"} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q in %q", want, summary)
		}
	}

	// Same seed, same trace — the determinism the -seed flag promises.
	out2 := filepath.Join(t.TempDir(), "again.trace")
	if err := run([]string{"-profile", "A5", "-duration", "5m", "-seed", "3", "-o", out2, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	events2, err := readTrace(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, events2) {
		t.Error("same seed produced different traces")
	}
}

// The text path: -text output parses back to the same events the binary
// format carries.
func TestRunTextMatchesBinary(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "t.bin")
	txt := filepath.Join(dir, "t.txt")
	var buf bytes.Buffer
	if err := run([]string{"-profile", "C4", "-duration", "5m", "-seed", "7", "-o", bin, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-profile", "C4", "-duration", "5m", "-seed", "7", "-text", "-o", txt, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("-q still printed: %q", buf.String())
	}
	binEvents, err := readTrace(bin)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	txtEvents, err := trace.ReadText(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(binEvents, txtEvents) {
		t.Errorf("text trace (%d events) differs from binary (%d events)", len(txtEvents), len(binEvents))
	}
}

// The -v2 path: the checkpointed framing carries the same events as the
// version-1 encoding, and the file really is version 2.
func TestRunV2MatchesV1(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "t1.bin")
	v2 := filepath.Join(dir, "t2.bin")
	var buf bytes.Buffer
	if err := run([]string{"-profile", "C4", "-duration", "5m", "-seed", "7", "-o", v1, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-profile", "C4", "-duration", "5m", "-seed", "7", "-v2", "-checkpoint", "1000", "-o", v2, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	e1, err := readTrace(v1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < trace.HeaderSize || data[trace.HeaderSize-1] != trace.Version2 {
		t.Fatalf("-v2 did not write a version-2 header: % x", data[:min(len(data), trace.HeaderSize)])
	}
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := trace.ReadSource(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("v2 trace (%d events) differs from v1 (%d events)", len(e2), len(e1))
	}
	if !r.Skipped().Zero() {
		t.Errorf("undamaged v2 trace reported skips: %v", r.Skipped())
	}
}

// The merge path: a profile list produces one time-ordered stream and a
// merged-summary line.
func TestRunMergesProfiles(t *testing.T) {
	out := filepath.Join(t.TempDir(), "server.trace")
	var buf bytes.Buffer
	if err := run([]string{"-profile", "A5,E3", "-duration", "5m", "-o", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 merged profiles") {
		t.Errorf("merge summary missing: %q", buf.String())
	}
	merged, err := readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "a5.trace")
	if err := run([]string{"-profile", "A5", "-duration", "5m", "-o", single, "-q"}, &buf); err != nil {
		t.Fatal(err)
	}
	a5, err := readTrace(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) <= len(a5) {
		t.Errorf("merged trace has %d events, single A5 has %d", len(merged), len(a5))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time < merged[i-1].Time {
			t.Fatalf("merged event %d out of order", i)
		}
	}

	// The three machines' merge, unsharded and with two shards per
	// machine, pinned to the SHA-256 of the files the spill-file merge
	// (generate each machine into a file, read the files back and merge
	// them) wrote before the merge ran on the live streams.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "37172529e07296e9b35bc87cb82af13a9240ac718f7317fb5e8af0c214a9f323"},
		{[]string{"-shards", "2"}, "2ecbddf3a5daf3dbaa82689222e4b8c6fa7b74bc4c0eb73f740e8f122d16dba6"},
	} {
		out := filepath.Join(t.TempDir(), "server.trace")
		args := append([]string{"-q", "-profile", "A5,E3,C4", "-duration", "1h", "-o", out}, tc.args...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.want {
			t.Errorf("fstrace %v: SHA-256 %x, want %s", args, sum, tc.want)
		}
	}
}
