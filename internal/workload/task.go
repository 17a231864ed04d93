package workload

import (
	"bsdtrace/internal/dist"
	"bsdtrace/internal/kernel"
	"bsdtrace/internal/trace"
)

// task is a pooled continuation for the generator's hottest scheduling
// sites: the close that ends every whole-file transfer, and the steps of
// the administrative lookups and the rwho readers. A closure at each of
// those sites would cost an allocation per event; a task is taken from
// the generator's free list, scheduled, and returned to it when it has
// run.
// Everything else still schedules a closure.
type task struct {
	g    *generator
	next *task // free list
	kind taskKind

	p  *kernel.Proc
	fd int
	n  int64 // taskRead/taskWrite: bytes to move; taskAdmin: file size

	src    *dist.Source
	i      int  // taskAdmin: transfers left; taskRwho: files read so far
	limit  int  // taskRwho: files to read
	writes bool // taskAdmin: writes in place
}

type taskKind uint8

const (
	taskRead  taskKind = iota // read n bytes on fd, then close it
	taskWrite                 // write n bytes on fd, then close it
	taskAdmin                 // one positioned transfer of adminLookup
	taskRwho                  // one status file of rwhoCheck
)

// newTask returns a task of the given kind from the free list.
func (g *generator) newTask(kind taskKind) *task {
	t := g.free
	if t == nil {
		t = &task{g: g}
	} else {
		g.free = t.next
	}
	t.kind = kind
	return t
}

// release clears t and puts it back on the free list.
func (g *generator) release(t *task) {
	*t = task{g: g, next: g.free}
	g.free = t
}

// Run makes a task a sim.Runner.
func (t *task) Run() {
	g := t.g
	switch t.kind {
	case taskRead:
		t.p.Read(t.fd, t.n)
		t.p.Close(t.fd)
		g.release(t)
	case taskWrite:
		t.p.Write(t.fd, t.n)
		t.p.Close(t.fd)
		g.release(t)
	case taskAdmin:
		g.adminStep(t)
	case taskRwho:
		g.rwhoStep(t)
	}
}

// closeAfter schedules the transfer of n bytes on fd, in the direction
// kind names, and the close of fd, d from now.
func (g *generator) closeAfter(d trace.Time, kind taskKind, p *kernel.Proc, fd int, n int64) {
	t := g.newTask(kind)
	t.p, t.fd, t.n = p, fd, n
	g.eng.AfterRunner(d, t)
}
