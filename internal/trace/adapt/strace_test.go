package adapt_test

import (
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/trace/adapt/adapttest"
	"bsdtrace/internal/trace/sourcetest"
)

// straceSample is a cat-like run with the noise a real log carries:
// failed calls, operations on inherited fds, a signal, a process exit.
const straceSample = `1234  1700000000.000000 execve("/bin/cat", ["cat", "notes"], 0x7ffc /* 20 vars */) = 0
1234  1700000000.010000 openat(AT_FDCWD, "notes", O_RDONLY) = 3
1234  1700000000.020000 read(3, "hello wor"..., 4096) = 4096
1234  1700000000.030000 read(3, "ld\n", 4096) = 100
1234  1700000000.040000 read(3, "", 4096) = 0
1234  1700000000.050000 close(3) = 0
1234  1700000000.060000 openat(AT_FDCWD, "out", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 3
1234  1700000000.070000 write(3, "hello"..., 4196) = 4196
1234  1700000000.080000 close(3) = 0
1234  1700000000.090000 lseek(0, 0, SEEK_SET) = -1 ESPIPE (Illegal seek)
1234  1700000000.100000 write(1, "done\n", 5) = 5
--- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---
1234  1700000000.110000 unlink("out") = 0
+++ exited with 0 +++
`

func straceFactory(input string) adapttest.Factory {
	return func(t *testing.T) adapt.Source {
		return adapt.NewStrace(strings.NewReader(input))
	}
}

func TestStraceConformance(t *testing.T) {
	adapttest.Run(t, straceFactory(straceSample))
}

func TestStraceEvents(t *testing.T) {
	src := adapt.NewStrace(strings.NewReader(straceSample))
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		{Time: 0, Kind: trace.KindExec, File: 1, User: 1},
		{Time: 10, Kind: trace.KindOpen, OpenID: 3, File: 2, User: 1, Mode: trace.ReadOnly},
		// The three reads advance the implicit position to 4196 with no
		// events of their own — the paper's no-read-write model.
		{Time: 50, Kind: trace.KindClose, OpenID: 3, NewPos: 4196},
		// O_TRUNC makes the second open a create.
		{Time: 60, Kind: trace.KindCreate, OpenID: 5, File: 4, User: 1, Mode: trace.WriteOnly},
		{Time: 80, Kind: trace.KindClose, OpenID: 5, NewPos: 4196},
		{Time: 110, Kind: trace.KindUnlink, File: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%v", len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := src.Stats()
	// Skipped: the failed lseek, the write to inherited fd 1, the
	// signal, and the exit marker.
	if st.Lines != 14 || st.Records != 10 || st.Skipped != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStraceSeekTruncate covers the positional syscalls on a pid-less,
// wall-clock-timestamped log.
func TestStraceSeekTruncate(t *testing.T) {
	const input = `09:00:00.000 openat(AT_FDCWD, "db", O_RDWR) = 4
09:00:00.100 pread64(4, "x", 100, 4096) = 100
09:00:00.200 lseek(4, 0, SEEK_SET) = 0
09:00:00.300 write(4, "y", 50) = 50
09:00:00.400 ftruncate(4, 1000) = 0
09:00:00.500 close(4) = 0
09:00:01.000 truncate("db", 0) = 0
09:00:01.100 unlink("db") = 0
`
	adapttest.Run(t, straceFactory(input))

	src := adapt.NewStrace(strings.NewReader(input))
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		{Time: 0, Kind: trace.KindOpen, OpenID: 2, File: 1, User: 1, Mode: trace.ReadWrite},
		// pread64 at an offset away from the implicit position
		// synthesizes a seek.
		{Time: 100, Kind: trace.KindSeek, OpenID: 2, OldPos: 0, NewPos: 4096},
		// lseek's return value is the new absolute position.
		{Time: 200, Kind: trace.KindSeek, OpenID: 2, OldPos: 4196, NewPos: 0},
		{Time: 400, Kind: trace.KindTruncate, File: 1, Size: 1000},
		{Time: 500, Kind: trace.KindClose, OpenID: 2, NewPos: 50},
		{Time: 1000, Kind: trace.KindTruncate, File: 1},
		{Time: 1100, Kind: trace.KindUnlink, File: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%v", len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestStraceFdReuse: a log that lost a close reuses the fd number; the
// adapter ends the stale session itself so open ids stay well-formed.
func TestStraceFdReuse(t *testing.T) {
	const input = `open("a", O_RDONLY) = 3
read(3, "", 100) = 100
open("b", O_RDONLY) = 3
close(3) = 0
`
	adapttest.Run(t, straceFactory(input))

	src := adapt.NewStrace(strings.NewReader(input))
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []trace.Kind{trace.KindOpen, trace.KindClose, trace.KindOpen, trace.KindClose}
	if len(got) != len(kinds) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(kinds), got)
	}
	for i, k := range kinds {
		if got[i].Kind != k {
			t.Errorf("event %d kind %v, want %v", i, got[i].Kind, k)
		}
	}
	if got[1].NewPos != 100 {
		t.Errorf("synthesized close at pos %d, want 100 (what the reads revealed)", got[1].NewPos)
	}
}

// TestStraceIncarnations: unlinking a path retires its FileID; the next
// create of the same path is a new file.
func TestStraceIncarnations(t *testing.T) {
	const input = `creat("tmp", 0644) = 3
close(3) = 0
unlink("tmp") = 0
creat("tmp", 0644) = 3
close(3) = 0
`
	src := adapt.NewStrace(strings.NewReader(input))
	got, err := trace.ReadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	first, second := got[0], got[3]
	if first.Kind != trace.KindCreate || second.Kind != trace.KindCreate {
		t.Fatalf("events: %v", got)
	}
	if first.File == second.File {
		t.Errorf("both incarnations got FileID %d; want distinct ids", first.File)
	}
}

func TestStraceErrors(t *testing.T) {
	cases := map[string]string{
		"truncated-args": `openat(AT_FDCWD, "x", O_RDONLY`,
		"bad-timestamp":  `12:99:00.000 close(3) = 0`,
		"missing-ret":    `close(3)`,
		"bad-fd":         `close(three) = 0`,
		"negative-len":   `ftruncate(3, -1) = 0`,
		"strange-dirfd":  `openat(7, "x", O_RDONLY) = 3`,
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			input := "open(\"a\", O_RDONLY) = 3\n" + bad + "\n"
			sourcetest.RunSticky(t, func(t *testing.T) trace.Source {
				return adapt.NewStrace(strings.NewReader(input))
			}, 1) // the open event arrives before the error
			src := adapt.NewStrace(strings.NewReader(input))
			_, err := trace.ReadSource(src)
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("error %v does not name line 2", err)
			}
		})
	}
}

func TestParseStraceLineSkips(t *testing.T) {
	skips := []string{
		"",
		"--- SIGSEGV {si_signo=SIGSEGV} ---",
		"+++ killed by SIGKILL +++",
		`mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3, 0) = 0`,
		`futex(0x7f, FUTEX_WAIT, 0, NULL) = 0`,
		`1234  read(3,  <unfinished ...>`,
		`1234  <... read resumed>"", 4096) = 0`,
		`openat(AT_FDCWD, "x", O_RDONLY) = ?`,
	}
	for _, line := range skips {
		if _, ok, err := adapt.ParseStraceLine(line); ok || err != nil {
			t.Errorf("ParseStraceLine(%q) = ok=%v err=%v, want skip", line, ok, err)
		}
	}
}

func TestParseStraceLineRoundTrip(t *testing.T) {
	lines := []string{
		`1234  1700000000.123456 openat(AT_FDCWD, "/etc/passwd", O_RDONLY|O_CLOEXEC) = 3`,
		`read(3, "line\n", 4096) = 5`,
		`14:32:05.123456 write(4, "x"..., 100) = 100`,
		`pread64(3, "\"quoted\"", 10, 200) = 10`,
		`lseek(3, -10, SEEK_END) = 990`,
		`close(9) = 0`,
		`unlink("/tmp/a b") = 0`,
		`unlinkat(AT_FDCWD, "dir", AT_REMOVEDIR) = 0`,
		`truncate("f", 0) = 0`,
		`ftruncate(5, 12345) = 0`,
		`execve("/bin/sh", ["sh", "-c", "ls, etc"], 0x55 /* 10 vars */) = 0`,
		`open("gone", O_RDONLY) = -1 ENOENT (No such file or directory)`,
		`creat("n", 0600) = 4`,
	}
	for _, line := range lines {
		s, ok, err := adapt.ParseStraceLine(line)
		if err != nil || !ok {
			t.Fatalf("ParseStraceLine(%q) = ok=%v err=%v", line, ok, err)
		}
		again, ok, err := adapt.ParseStraceLine(s.String())
		if err != nil || !ok {
			t.Fatalf("re-parse of %q (from %q) failed: ok=%v err=%v", s.String(), line, ok, err)
		}
		if again != s {
			t.Errorf("round trip changed the record:\n  line   %q\n  first  %+v\n  render %q\n  second %+v", line, s, s.String(), again)
		}
	}
}
