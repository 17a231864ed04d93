package adapt_test

import (
	"strings"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
)

// The parser fuzz law, shared by all three formats: parsing never
// panics, and an accepted record survives a render/re-parse cycle
// unchanged — String() is a faithful inverse of the parser.

func FuzzBlockCSV(f *testing.F) {
	f.Add("128166372003061629,usr,6,Write,2031616,4096,527")
	f.Add("0,h,0,Read,100,5000")
	f.Add("Timestamp,Hostname,DiskNumber,Type,Offset,Size")
	f.Add("1,h,0,read,0,0")
	f.Add("-1,h,0,Read,0,4096")
	f.Add("1,h,0,Read,0,4096,")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := adapt.ParseBlockCSVLine(line)
		if err != nil {
			return
		}
		again, err := adapt.ParseBlockCSVLine(rec.String())
		if err != nil {
			t.Fatalf("accepted %q -> %q, which does not re-parse: %v", line, rec.String(), err)
		}
		if again != rec {
			t.Fatalf("round trip changed record: %q -> %+v -> %q -> %+v", line, rec, rec.String(), again)
		}
	})
}

func FuzzPageRef(f *testing.F) {
	f.Add("0, 17")
	f.Add("1, 50000")
	f.Add("1,0")
	f.Add("2, 3")
	f.Add("0, -1")
	f.Add("0 17")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := adapt.ParsePageRefLine(line)
		if err != nil {
			return
		}
		again, err := adapt.ParsePageRefLine(rec.String())
		if err != nil {
			t.Fatalf("accepted %q -> %q, which does not re-parse: %v", line, rec.String(), err)
		}
		if again != rec {
			t.Fatalf("round trip changed record: %q -> %+v -> %q -> %+v", line, rec, rec.String(), again)
		}
	})
}

func FuzzStraceLine(f *testing.F) {
	f.Add(`1234  1700000000.123456 openat(AT_FDCWD, "/etc/passwd", O_RDONLY|O_CLOEXEC) = 3`)
	f.Add(`read(3, "line\n", 4096) = 5`)
	f.Add(`14:32:05.123456 write(4, "x"..., 100) = 100`)
	f.Add(`lseek(3, -10, SEEK_END) = 990`)
	f.Add(`--- SIGCHLD {si_signo=SIGCHLD} ---`)
	f.Add(`open("gone", O_RDONLY) = -1 ENOENT (No such file or directory)`)
	f.Add(`execve("/bin/sh", ["sh", "-c", "ls"], 0x55 /* 10 vars */) = 0`)
	f.Add(`close(3) = ?`)
	f.Add(`pread64(3, "\"", 1, 0) = 1`)
	f.Fuzz(func(t *testing.T, line string) {
		s, ok, err := adapt.ParseStraceLine(line)
		if !ok || err != nil {
			return
		}
		rendered := s.String()
		again, ok, err := adapt.ParseStraceLine(rendered)
		if !ok || err != nil {
			t.Fatalf("accepted %q -> %q, which does not re-parse: ok=%v err=%v", line, rendered, ok, err)
		}
		if again != s {
			t.Fatalf("round trip changed record:\n  line   %q\n  first  %+v\n  render %q\n  second %+v", line, s, rendered, again)
		}
	})
}

// FuzzAdapterStreams drives whole inputs (not single lines) through
// every adapter: NextBatch never panics, terminates, and two passes agree.
func FuzzAdapterStreams(f *testing.F) {
	f.Add("1000,src1,0,Read,0,8192\n1100,src1,0,Write,8192,4096\n")
	f.Add("0, 0\n1, 2\n0, 1\n")
	f.Add("open(\"a\", O_RDONLY) = 3\nread(3, \"\", 100) = 100\nclose(3) = 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, format := range []adapt.Format{adapt.FormatBlockCSV, adapt.FormatPageRef, adapt.FormatStrace} {
			one, err1 := drainLimited(format, input)
			two, err2 := drainLimited(format, input)
			if (err1 == nil) != (err2 == nil) || len(one) != len(two) {
				t.Fatalf("%v: two parses disagree: (%d, %v) vs (%d, %v)", format, len(one), err1, len(two), err2)
			}
			for i := range one {
				if one[i] != two[i] {
					t.Fatalf("%v: event %d differs between passes", format, i)
				}
			}
		}
	})
}

func drainLimited(format adapt.Format, input string) ([]trace.Event, error) {
	src, err := adapt.NewSource(format, strings.NewReader(input))
	if err != nil {
		return nil, err
	}
	var got []trace.Event
	buf := make([]trace.Event, trace.DefaultBatchSize)
	for len(got) < 1<<16 {
		n, err := src.NextBatch(buf)
		if n == 0 {
			return got, err
		}
		got = append(got, buf[:n]...)
	}
	return got, nil
}
