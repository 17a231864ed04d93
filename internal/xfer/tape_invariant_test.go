package xfer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bsdtrace/internal/kernel"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// The tape invariant consumers rely on: no transfer has zero (or
// negative) length. emitRun drops empty runs, NewTape drops zero-size
// execs, and block-span arithmetic downstream (the simulator's access count,
// resolve) divides (End()-1) by the block size — sound only if every
// run covers at least one byte. Drive a kernel through adversarial
// zero-length operations (zero-byte reads and writes, seeks to the
// current position, zero-byte creates, execs of empty files) and check
// every transfer on the resulting tape.
func TestTapeTransfersPositiveLength(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var events []trace.Event
		var now trace.Time
		k := kernel.New(vfs.New(), func() trace.Time { return now },
			func(e trace.Event) { events = append(events, e) })
		p := k.NewProc(1)
		paths := []string{"/a", "/b", "/c"}
		var fds []int
		for _, op := range opsRaw {
			now += trace.Time(rng.Intn(500))
			switch op % 8 {
			case 0:
				if fd, err := p.Create(paths[rng.Intn(len(paths))], trace.WriteOnly); err == nil {
					fds = append(fds, fd)
				}
			case 1:
				if fd, err := p.Open(paths[rng.Intn(len(paths))], trace.Mode(rng.Intn(3))); err == nil {
					fds = append(fds, fd)
				}
			case 2: // read, often zero-length
				if len(fds) > 0 {
					p.Read(fds[rng.Intn(len(fds))], int64(rng.Intn(3)*rng.Intn(4000)))
				}
			case 3: // write, often zero-length
				if len(fds) > 0 {
					p.Write(fds[rng.Intn(len(fds))], int64(rng.Intn(3)*rng.Intn(4000)))
				}
			case 4: // seek, sometimes to the current position
				if len(fds) > 0 {
					fd := fds[rng.Intn(len(fds))]
					if rng.Intn(2) == 0 {
						p.SeekEnd(fd)
					} else {
						p.Seek(fd, int64(rng.Intn(2)*rng.Intn(20000)))
					}
				}
			case 5:
				if len(fds) > 0 {
					i := rng.Intn(len(fds))
					p.Close(fds[i])
					fds = append(fds[:i], fds[i+1:]...)
				}
			case 6:
				path := paths[rng.Intn(len(paths))]
				if rng.Intn(2) == 0 {
					p.Unlink(path)
				} else {
					p.Truncate(path, int64(rng.Intn(2)*rng.Intn(5000)))
				}
			case 7: // exec, including of empty files
				p.Exec(paths[rng.Intn(len(paths))])
			}
		}
		for _, fd := range fds {
			p.Close(fd)
		}

		tape, err := NewTape(events)
		if err != nil {
			return false
		}
		for i, tr := range tape.Transfers {
			if tr.Length <= 0 {
				t.Logf("transfer %d has length %d: %+v", i, tr.Length, tr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTapeTruncate(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 10000)
	b.now = 90 * trace.Second
	b.read(1, 10000)
	tape := mustTape(t, b.events)
	end := tape.Ops[len(tape.Ops)-1].Time

	// Truncating at the trace end reproduces the whole tape, no trailing
	// advance needed.
	whole := tape.Truncate(end)
	if len(whole.Ops) != len(tape.Ops) {
		t.Errorf("Truncate(end) has %d ops, want %d", len(whole.Ops), len(tape.Ops))
	}

	// Truncating mid-trace keeps exactly the ops at or before the cut
	// and appends a clock advance to the cut instant.
	cut := 30 * trace.Second
	mid := tape.Truncate(cut)
	last := mid.Ops[len(mid.Ops)-1]
	if last.Kind != OpAdvance || last.Time != cut {
		t.Errorf("truncated tape ends with %+v, want advance to %v", last, cut)
	}
	for _, op := range mid.Ops {
		if op.Time > cut {
			t.Errorf("op %+v beyond the cut %v", op, cut)
		}
	}

	// Truncating before the first op leaves only the advance.
	early := tape.Truncate(trace.Millisecond)
	if len(early.Ops) != 1 || early.Ops[0].Kind != OpAdvance {
		t.Errorf("Truncate(1ms) ops: %+v", early.Ops)
	}

	// Truncating past the end extends the clock beyond the last op, so
	// time-driven machinery sees the post-trace idle time.
	late := tape.Truncate(end + trace.Hour)
	last = late.Ops[len(late.Ops)-1]
	if last.Kind != OpAdvance || last.Time != end+trace.Hour {
		t.Errorf("Truncate past end ends with %+v", last)
	}
	if len(late.Ops) != len(tape.Ops)+1 {
		t.Errorf("Truncate past end has %d ops, want %d", len(late.Ops), len(tape.Ops)+1)
	}

	// Transfers are shared, not copied.
	if len(mid.Transfers) != len(tape.Transfers) {
		t.Errorf("truncated tape has %d transfers, want the shared %d", len(mid.Transfers), len(tape.Transfers))
	}
}
