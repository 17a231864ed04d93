package kernel

import (
	"errors"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// harness bundles a kernel with a captured event log and a settable clock.
type harness struct {
	k      *Kernel
	now    trace.Time
	events []trace.Event
}

func newHarness() *harness {
	h := &harness{}
	h.k = New(vfs.New(), func() trace.Time { return h.now },
		func(e trace.Event) { h.events = append(h.events, e) })
	return h
}

func (h *harness) lastEvent(t *testing.T) trace.Event {
	t.Helper()
	if len(h.events) == 0 {
		t.Fatal("no events recorded")
	}
	return h.events[len(h.events)-1]
}

func TestCreateWriteCloseTrace(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(7)
	h.now = 123 * trace.Millisecond
	fd, err := p.Create("/f", trace.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	ev := h.lastEvent(t)
	if ev.Kind != trace.KindCreate || ev.User != 7 || ev.Size != 0 || ev.Mode != trace.WriteOnly {
		t.Errorf("create event wrong: %+v", ev)
	}
	if ev.Time != 120 { // quantized to 10 ms
		t.Errorf("event time = %v, want 120 (quantized)", ev.Time)
	}
	if n, err := p.Write(fd, 5000); err != nil || n != 5000 {
		t.Fatalf("Write: %d %v", n, err)
	}
	h.now = 456 * trace.Millisecond
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	ev = h.lastEvent(t)
	if ev.Kind != trace.KindClose || ev.NewPos != 5000 || ev.Time != 450 {
		t.Errorf("close event wrong: %+v", ev)
	}
	// Only create and close were traced; the write was not.
	if len(h.events) != 2 {
		t.Errorf("%d events traced, want 2", len(h.events))
	}
}

func TestOpenRecordsSizeAtOpen(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/f", trace.WriteOnly)
	p.Write(fd, 4096)
	p.Close(fd)
	fd, err := p.Open("/f", trace.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	ev := h.lastEvent(t)
	if ev.Kind != trace.KindOpen || ev.Size != 4096 || ev.Mode != trace.ReadOnly {
		t.Errorf("open event wrong: %+v", ev)
	}
	if n, _ := p.Read(fd, 10000); n != 4096 {
		t.Errorf("Read past EOF returned %d, want 4096", n)
	}
	p.Close(fd)
	if h.events[len(h.events)-1].NewPos != 4096 {
		t.Errorf("final position wrong")
	}
}

func TestImplicitSequentialPosition(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/f", trace.ReadWrite)
	p.Write(fd, 100)
	p.Write(fd, 200)
	if _, err := p.Seek(fd, 50); err != nil {
		t.Fatal(err)
	}
	ev := h.lastEvent(t)
	if ev.Kind != trace.KindSeek || ev.OldPos != 300 || ev.NewPos != 50 {
		t.Errorf("seek event wrong: %+v", ev)
	}
	if n, _ := p.Read(fd, 100); n != 100 {
		t.Errorf("read after seek = %d, want 100", n)
	}
	p.Close(fd)
	if ev := h.lastEvent(t); ev.NewPos != 150 {
		t.Errorf("close pos = %d, want 150", ev.NewPos)
	}
}

func TestSeekEnd(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/mbox", trace.ReadWrite)
	p.Write(fd, 1000)
	p.Close(fd)
	fd, _ = p.Open("/mbox", trace.WriteOnly)
	pos, err := p.SeekEnd(fd)
	if err != nil || pos != 1000 {
		t.Fatalf("SeekEnd = %d %v, want 1000", pos, err)
	}
	p.Write(fd, 50)
	p.Close(fd)
	n, _ := h.k.FS().Lookup("/mbox")
	if n.Size() != 1050 {
		t.Errorf("mailbox size = %d, want 1050", n.Size())
	}
}

func TestModeEnforcement(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/f", trace.WriteOnly)
	if _, err := p.Read(fd, 10); !errors.Is(err, ErrAccess) {
		t.Errorf("read on write-only = %v, want ErrAccess", err)
	}
	p.Close(fd)
	fd, _ = p.Open("/f", trace.ReadOnly)
	if _, err := p.Write(fd, 10); !errors.Is(err, ErrAccess) {
		t.Errorf("write on read-only = %v, want ErrAccess", err)
	}
}

func TestBadFD(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	if _, err := p.Read(42, 1); !errors.Is(err, ErrBadFD) {
		t.Errorf("Read bad fd = %v", err)
	}
	if _, err := p.Write(42, 1); !errors.Is(err, ErrBadFD) {
		t.Errorf("Write bad fd = %v", err)
	}
	if _, err := p.Seek(42, 0); !errors.Is(err, ErrBadFD) {
		t.Errorf("Seek bad fd = %v", err)
	}
	if err := p.Close(42); !errors.Is(err, ErrBadFD) {
		t.Errorf("Close bad fd = %v", err)
	}
	// Double close.
	fd, _ := p.Create("/f", trace.WriteOnly)
	p.Close(fd)
	if err := p.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Errorf("double Close = %v", err)
	}
}

func TestNegativeCountsAndSeeks(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/f", trace.ReadWrite)
	if _, err := p.Read(fd, -1); err == nil {
		t.Errorf("negative read accepted")
	}
	if _, err := p.Write(fd, -1); err == nil {
		t.Errorf("negative write accepted")
	}
	if _, err := p.Seek(fd, -1); err == nil {
		t.Errorf("negative seek accepted")
	}
}

func TestUnlinkWhileOpen(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/tmp1", trace.WriteOnly)
	p.Write(fd, 100)
	if err := p.Unlink("/tmp1"); err != nil {
		t.Fatal(err)
	}
	ev := h.lastEvent(t)
	if ev.Kind != trace.KindUnlink {
		t.Errorf("unlink event wrong: %+v", ev)
	}
	// Writing through the surviving descriptor still works.
	if _, err := p.Write(fd, 100); err != nil {
		t.Errorf("write after unlink: %v", err)
	}
	p.Close(fd)
}

func TestTruncateEvent(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/f", trace.WriteOnly)
	p.Write(fd, 10000)
	p.Close(fd)
	if err := p.Truncate("/f", 100); err != nil {
		t.Fatal(err)
	}
	ev := h.lastEvent(t)
	if ev.Kind != trace.KindTruncate || ev.Size != 100 {
		t.Errorf("truncate event wrong: %+v", ev)
	}
	n, _ := h.k.FS().Lookup("/f")
	if n.Size() != 100 {
		t.Errorf("size = %d, want 100", n.Size())
	}
}

func TestExecEvent(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(3)
	if _, err := h.k.FS().MkdirAll("/bin"); err != nil {
		t.Fatal(err)
	}
	fd, _ := p.Create("/bin/cc", trace.WriteOnly)
	p.Write(fd, 200000)
	p.Close(fd)
	if err := p.Exec("/bin/cc"); err != nil {
		t.Fatal(err)
	}
	ev := h.lastEvent(t)
	if ev.Kind != trace.KindExec || ev.Size != 200000 || ev.User != 3 {
		t.Errorf("exec event wrong: %+v", ev)
	}
	if err := p.Exec("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("exec missing = %v", err)
	}
}

func TestOpenIDsUniqueAcrossProcs(t *testing.T) {
	h := newHarness()
	p1 := h.k.NewProc(1)
	p2 := h.k.NewProc(2)
	seen := map[trace.OpenID]bool{}
	for i := 0; i < 10; i++ {
		fd1, _ := p1.Create("/a", trace.WriteOnly)
		fd2, _ := p2.Create("/b", trace.WriteOnly)
		p1.Close(fd1)
		p2.Close(fd2)
	}
	for _, e := range h.events {
		if e.Kind == trace.KindCreate {
			if seen[e.OpenID] {
				t.Fatalf("open id %d reused", e.OpenID)
			}
			seen[e.OpenID] = true
		}
	}
}

func TestOpenDirFails(t *testing.T) {
	h := newHarness()
	h.k.FS().MkdirAll("/d")
	p := h.k.NewProc(1)
	if _, err := p.Open("/d", trace.ReadOnly); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("Open dir = %v", err)
	}
	if err := p.Exec("/d"); !errors.Is(err, ErrNotExec) {
		t.Errorf("Exec dir = %v", err)
	}
}

func TestNilSink(t *testing.T) {
	k := New(vfs.New(), func() trace.Time { return 0 }, nil)
	p := k.NewProc(1)
	fd, err := p.Create("/f", trace.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	p.Write(fd, 10)
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if k.Stats.Creates != 1 || k.Stats.Closes != 1 {
		t.Errorf("stats not counted with nil sink: %+v", k.Stats)
	}
}

// The kernel's event stream must satisfy the trace validator: this is the
// integration point between the kernel and the analyses.
func TestKernelEmitsValidTrace(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	for i := 0; i < 50; i++ {
		h.now += 37 * trace.Millisecond
		fd, err := p.Create("/work", trace.WriteOnly)
		if err != nil {
			t.Fatal(err)
		}
		p.Write(fd, int64(1000*(i+1)))
		h.now += 13 * trace.Millisecond
		p.Close(fd)
		fd, err = p.Open("/work", trace.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		p.Read(fd, 500)
		p.Seek(fd, 700)
		p.Read(fd, 100)
		h.now += 5 * trace.Millisecond
		p.Close(fd)
		if i%10 == 9 {
			p.Unlink("/work")
			fd, _ = p.Create("/work", trace.WriteOnly)
			p.Close(fd)
		}
	}
	v := trace.NewValidator(0)
	for _, e := range h.events {
		v.Check(e)
	}
	for _, err := range v.Errs() {
		t.Errorf("validator: %v", err)
	}
	if unclosed := v.Finish(); unclosed != 0 {
		t.Errorf("unclosed opens: %d", unclosed)
	}
}

// After a close the next open takes the lowest free descriptor, and the
// reused slot starts afresh: position 0, the new mode, and no pending
// i-node update from the old descriptor's writes.
func TestDescriptorReuse(t *testing.T) {
	h := newHarness()
	meta := &countMeta{}
	h.k.SetMeta(meta)
	p := h.k.NewProc(1)
	var fds [3]int
	for i, path := range []string{"/a", "/b", "/c"} {
		fd, err := p.Create(path, trace.WriteOnly)
		if err != nil {
			t.Fatal(err)
		}
		if fd != i {
			t.Fatalf("fresh descriptor %d, want %d", fd, i)
		}
		fds[i] = fd
	}
	p.Write(fds[1], 700)
	if err := p.Close(fds[1]); err != nil {
		t.Fatal(err)
	}
	fd, err := p.Open("/a", trace.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if fd != 1 {
		t.Fatalf("open after closing fd 1 got fd %d, want the lowest free, 1", fd)
	}
	if _, err := p.Write(fd, 10); !errors.Is(err, ErrAccess) {
		t.Errorf("write on the reused read-only slot = %v, want ErrAccess", err)
	}
	updates := meta.inodeUpdates
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if ev := h.lastEvent(t); ev.NewPos != 0 {
		t.Errorf("reused slot closed at position %d, want 0", ev.NewPos)
	}
	if meta.inodeUpdates != updates {
		t.Errorf("closing the unwritten reused slot dirtied an i-node")
	}
	if fd, _ := p.Open("/b", trace.ReadOnly); fd != 1 {
		t.Errorf("second reuse got fd %d, want 1", fd)
	}
	if p.OpenFDs() != 3 {
		t.Errorf("OpenFDs = %d, want 3", p.OpenFDs())
	}
}

// countMeta counts i-node updates.
type countMeta struct{ inodeUpdates int }

func (m *countMeta) Resolve(string)   {}
func (m *countMeta) InodeUpdate()     { m.inodeUpdates++ }
func (m *countMeta) DirUpdate(string) {}

// Every descriptor call on a closed descriptor fails with ErrBadFD, also
// once the process has closed its last descriptor and given its table
// back, and once another process has taken that table.
func TestClosedDescriptorIsBad(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	keep, _ := p.Create("/keep", trace.ReadWrite)
	fd, _ := p.Create("/f", trace.ReadWrite)
	p.Close(fd)
	check := func(when string, fd int) {
		t.Helper()
		if _, err := p.Read(fd, 1); !errors.Is(err, ErrBadFD) {
			t.Errorf("%s: Read = %v", when, err)
		}
		if _, err := p.Write(fd, 1); !errors.Is(err, ErrBadFD) {
			t.Errorf("%s: Write = %v", when, err)
		}
		if _, err := p.Seek(fd, 0); !errors.Is(err, ErrBadFD) {
			t.Errorf("%s: Seek = %v", when, err)
		}
		if _, err := p.Fstat(fd); !errors.Is(err, ErrBadFD) {
			t.Errorf("%s: Fstat = %v", when, err)
		}
		if err := p.Close(fd); !errors.Is(err, ErrBadFD) {
			t.Errorf("%s: Close = %v", when, err)
		}
	}
	check("closed slot below an open one", fd)
	p.Close(keep)
	check("after the last close", keep)
	q := h.k.NewProc(2)
	if _, err := q.Open("/keep", trace.ReadOnly); err != nil {
		t.Fatal(err)
	}
	check("with the table reused by another process", keep)
	if q.OpenFDs() != 1 || p.OpenFDs() != 0 {
		t.Errorf("OpenFDs = %d and %d, want 1 and 0", q.OpenFDs(), p.OpenFDs())
	}
}

// Fstat reports the size the open event recorded, and follows writes.
func TestFstatMatchesOpenSize(t *testing.T) {
	h := newHarness()
	p := h.k.NewProc(1)
	fd, _ := p.Create("/f", trace.WriteOnly)
	p.Write(fd, 3333)
	p.Close(fd)
	fd, err := p.Open("/f", trace.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	size, err := p.Fstat(fd)
	if err != nil {
		t.Fatal(err)
	}
	if ev := h.lastEvent(t); ev.Kind != trace.KindOpen || size != ev.Size || size != 3333 {
		t.Errorf("Fstat = %d, open event recorded %+v", size, ev)
	}
	p.SeekEnd(fd)
	p.Write(fd, 100)
	if size, _ := p.Fstat(fd); size != 3433 {
		t.Errorf("Fstat after an appending write = %d, want 3433", size)
	}
}

// On a warm process, an open, a read and a close allocate nothing.
func TestOpenReadCloseAllocateNothing(t *testing.T) {
	events := 0
	k := New(vfs.New(), func() trace.Time { return 0 }, func(trace.Event) { events++ })
	p := k.NewProc(1)
	fd, _ := p.Create("/f", trace.WriteOnly)
	p.Write(fd, 4096)
	p.Close(fd)
	cycle := func() {
		fd, err := p.Open("/f", trace.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		p.Read(fd, 1024)
		p.Close(fd)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("Open+Read+Close allocates %.1f objects, want 0", avg)
	}
	if events != 2+2*102 {
		t.Errorf("traced %d events, want %d", events, 2+2*102)
	}
}
