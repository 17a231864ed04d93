package workload

import (
	"testing"

	"bsdtrace/internal/kernel"
	"bsdtrace/internal/sim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// On a warm generator, scheduling and running a pooled task — here the
// read and close that end a whole-file read — allocates nothing, and the
// task goes back on the free list for the next one.
func TestPooledTaskAllocatesNothing(t *testing.T) {
	g := &generator{eng: sim.New()}
	closes := 0
	g.k = kernel.New(vfs.New(), g.eng.Now, func(e trace.Event) {
		if e.Kind == trace.KindClose {
			closes++
		}
	})
	p := g.k.NewProc(1)
	fd, _ := p.Create("/f", trace.WriteOnly)
	p.Write(fd, 4096)
	p.Close(fd)
	cycle := func() {
		fd, err := p.Open("/f", trace.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		g.closeAfter(5*trace.Millisecond, taskRead, p, fd, 1024)
		g.eng.Run(g.eng.Now() + 5*trace.Millisecond)
	}
	cycle() // grow the engine's queue and make the task once
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("a pooled read-and-close allocates %.1f objects, want 0", avg)
	}
	if p.OpenFDs() != 0 || closes != 1+1+101 {
		t.Errorf("%d descriptors left open after %d closes", p.OpenFDs(), closes)
	}
	if g.free == nil || g.free.next != nil {
		t.Errorf("free list does not hold exactly the one task")
	}
}
