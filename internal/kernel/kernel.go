// Package kernel implements the system-call layer of the simulated
// timesharing system, including the trace instrumentation from the paper's
// Table II.
//
// The kernel sits between the workload (simulated users and programs) and
// the vfs package. It provides per-process file descriptor tables and the
// 4.2 BSD access-position semantics the trace format relies on: reads and
// writes are implicitly sequential, and only an explicit seek changes the
// access position. The tracer hooks record exactly what the 1985
// instrumentation recorded — open/create, close, seek, unlink, truncate and
// execve events with positions and sizes — and nothing else. In particular,
// Read and Write generate no trace events; the analyses must deduce
// transfers from positions, the same inference problem the paper solved.
// Read and Write move access positions and file sizes, never bytes: the
// traces record no data, so the file system stores none.
//
// Trace timestamps are quantized to 10 ms, the accuracy the paper quotes
// for its tracer.
package kernel

import (
	"errors"
	"fmt"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// TimeQuantum is the tracer's timestamp granularity (paper Table II:
// "Time is accurate to approximately 10 milliseconds").
const TimeQuantum = 10 * trace.Millisecond

// Errors returned by system calls, in addition to the vfs errors which
// pass through unwrapped.
var (
	ErrBadFD   = errors.New("kernel: bad file descriptor")
	ErrAccess  = errors.New("kernel: operation not permitted by open mode")
	ErrNotExec = errors.New("kernel: not an executable file")
)

// Clock supplies the current virtual time; in the simulator it is
// sim.Engine.Now.
type Clock func() trace.Time

// Sink receives trace events as they are generated. A nil sink disables
// tracing (the kernel still runs, as on a machine without the trace
// package installed).
type Sink func(trace.Event)

// Stats counts kernel activity that the tracer does not record, used by
// tests and by the report tooling to sanity-check workloads.
type Stats struct {
	Opens        int64
	Creates      int64
	Closes       int64
	Seeks        int64
	Unlinks      int64
	Truncates    int64
	Execs        int64
	BytesRead    int64
	BytesWritten int64
}

// Kernel is the simulated operating system instance: one per traced
// machine.
type Kernel struct {
	fs    *vfs.FS
	clock Clock
	sink  Sink

	nextOpenID trace.OpenID
	meta       MetaHook
	Stats      Stats

	// spare holds the empty descriptor tables of processes that closed
	// their last descriptor, for the next process that opens a file.
	spare [][]OpenFile
}

// New creates a kernel over the given file system. clock must be non-nil;
// sink may be nil to disable tracing.
func New(fs *vfs.FS, clock Clock, sink Sink) *Kernel {
	if fs == nil || clock == nil {
		panic("kernel: New needs a file system and a clock")
	}
	return &Kernel{fs: fs, clock: clock, sink: sink, nextOpenID: 1}
}

// FS returns the underlying file system, for setup code that populates
// the namespace before the workload starts.
func (k *Kernel) FS() *vfs.FS { return k.fs }

// now returns the current time quantized to the tracer's granularity.
func (k *Kernel) now() trace.Time {
	t := k.clock()
	return t - t%TimeQuantum
}

func (k *Kernel) record(e trace.Event) {
	if k.sink != nil {
		k.sink(e)
	}
}

// Proc is a simulated process: a user identity plus a file descriptor
// table. The table holds open files by value, indexed by descriptor; a
// closed slot is the zero OpenFile. Open and Create take the lowest free
// slot, as UNIX does. Processes are created at program-run rates and most
// hold a descriptor or two for milliseconds, so a process that closes its
// last descriptor hands its table back to the kernel and the next process
// to open a file takes it: opening a file allocates nothing.
type Proc struct {
	k    *Kernel
	user trace.UserID
	fds  []OpenFile
	open int
}

// NewProc creates a process owned by the given user.
func (k *Kernel) NewProc(user trace.UserID) *Proc {
	return &Proc{k: k, user: user}
}

// OpenFile is one entry in the system open-file table: the object an open
// system call creates and a file descriptor names. It carries the access
// position that makes UNIX I/O implicitly sequential. Open IDs start at
// 1, so a zero openID marks a free slot.
type OpenFile struct {
	openID  trace.OpenID
	inode   *vfs.Inode
	pos     int64
	mode    trace.Mode
	written bool
}

// install puts of in the lowest free descriptor slot and returns the
// descriptor.
func (p *Proc) install(of OpenFile) int {
	p.open++
	for fd := range p.fds {
		if p.fds[fd].openID == 0 {
			p.fds[fd] = of
			return fd
		}
	}
	if p.fds == nil {
		if n := len(p.k.spare); n > 0 {
			p.fds = p.k.spare[n-1]
			p.k.spare = p.k.spare[:n-1]
		}
	}
	p.fds = append(p.fds, of)
	return len(p.fds) - 1
}

func (p *Proc) lookupFD(fd int) (*OpenFile, error) {
	if fd < 0 || fd >= len(p.fds) || p.fds[fd].openID == 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return &p.fds[fd], nil
}

// Open opens an existing file for access in the given mode and returns a
// file descriptor. It emits an open trace event recording the file's size
// at open time.
func (p *Proc) Open(path string, mode trace.Mode) (int, error) {
	n, err := p.k.fs.Lookup(path)
	if err != nil {
		return -1, err
	}
	p.k.metaResolve(path)
	if n.IsDir() {
		return -1, fmt.Errorf("%w: %q", vfs.ErrIsDir, path)
	}
	of := OpenFile{openID: p.k.nextOpenID, inode: n, mode: mode}
	p.k.nextOpenID++
	p.k.Stats.Opens++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindOpen,
		OpenID: of.openID, File: trace.FileID(n.Ino()), User: p.user,
		Mode: mode, Size: n.Size(),
	})
	return p.install(of), nil
}

// Create opens a file with O_CREAT|O_TRUNC semantics: the file is created
// if missing and truncated to zero length if present. Either way the data
// is new, so the tracer logs a create event (size zero). This is the
// operation behind the paper's "new files: files that did not exist before
// or that were truncated to zero length after being opened".
func (p *Proc) Create(path string, mode trace.Mode) (int, error) {
	n, created, err := p.k.fs.Create(path)
	if err != nil {
		return -1, err
	}
	p.k.metaResolve(path)
	p.k.metaInodeUpdate()
	if created {
		p.k.metaDirUpdate(path)
	}
	of := OpenFile{openID: p.k.nextOpenID, inode: n, mode: mode}
	p.k.nextOpenID++
	p.k.Stats.Creates++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindCreate,
		OpenID: of.openID, File: trace.FileID(n.Ino()), User: p.user,
		Mode: mode, Size: 0,
	})
	return p.install(of), nil
}

// Close closes a file descriptor, emitting a close event with the final
// access position.
func (p *Proc) Close(fd int) error {
	of, err := p.lookupFD(fd)
	if err != nil {
		return err
	}
	closed := *of
	*of = OpenFile{}
	p.open--
	if p.open == 0 {
		p.k.spare = append(p.k.spare, p.fds[:0])
		p.fds = nil
	}
	if closed.written {
		p.k.metaInodeUpdate()
	}
	p.k.Stats.Closes++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindClose,
		OpenID: closed.openID, NewPos: closed.pos,
	})
	return nil
}

// Fstat returns the size of the file open on fd: what stat(2) on the
// descriptor reports, with no pathname to resolve again.
func (p *Proc) Fstat(fd int) (int64, error) {
	of, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	return of.inode.Size(), nil
}

// OpenFDs returns the number of open descriptors.
func (p *Proc) OpenFDs() int { return p.open }

// Read advances the access position by up to n bytes, stopping at end of
// file, and returns the number of bytes read. No trace event is generated;
// reading is implicitly sequential.
func (p *Proc) Read(fd int, n int64) (int64, error) {
	of, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if !of.mode.CanRead() {
		return 0, fmt.Errorf("%w: read on %v fd", ErrAccess, of.mode)
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: negative count", vfs.ErrInvalid)
	}
	avail := of.inode.Size() - of.pos
	if avail < 0 {
		avail = 0
	}
	if n > avail {
		n = avail
	}
	of.pos += n
	p.k.Stats.BytesRead += n
	return n, nil
}

// Write advances the access position by n bytes, extending the file if the
// write passes end of file. No trace event is generated.
func (p *Proc) Write(fd int, n int64) (int64, error) {
	of, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if !of.mode.CanWrite() {
		return 0, fmt.Errorf("%w: write on %v fd", ErrAccess, of.mode)
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: negative count", vfs.ErrInvalid)
	}
	of.pos += n
	if of.pos > of.inode.Size() {
		of.inode.SetSize(of.pos)
	}
	of.written = true
	p.k.Stats.BytesWritten += n
	return n, nil
}

// Seek repositions the file offset to pos (absolute). It emits a seek
// event recording the previous and new positions — the information the
// analyzer needs to reconstruct transferred byte ranges.
func (p *Proc) Seek(fd int, pos int64) (int64, error) {
	of, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if pos < 0 {
		return 0, fmt.Errorf("%w: negative seek position", vfs.ErrInvalid)
	}
	old := of.pos
	of.pos = pos
	p.k.Stats.Seeks++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindSeek,
		OpenID: of.openID, OldPos: old, NewPos: pos,
	})
	return pos, nil
}

// SeekEnd repositions to end of file (the mailbox-append idiom) and
// returns the new position.
func (p *Proc) SeekEnd(fd int) (int64, error) {
	of, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	return p.Seek(fd, of.inode.Size())
}

// Unlink removes a file's directory entry and emits an unlink event. The
// inode survives while open descriptors reference it.
func (p *Proc) Unlink(path string) error {
	n, err := p.k.fs.Unlink(path)
	if err != nil {
		return err
	}
	p.k.metaResolve(path)
	p.k.metaInodeUpdate()
	p.k.metaDirUpdate(path)
	p.k.Stats.Unlinks++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindUnlink, File: trace.FileID(n.Ino()),
	})
	return nil
}

// Truncate shortens (or extends with a hole) the file at path and emits a
// truncate event with the new length.
func (p *Proc) Truncate(path string, size int64) error {
	n, err := p.k.fs.Truncate(path, size)
	if err != nil {
		return err
	}
	p.k.metaResolve(path)
	p.k.metaInodeUpdate()
	p.k.Stats.Truncates++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindTruncate,
		File: trace.FileID(n.Ino()), Size: size,
	})
	return nil
}

// Exec records the demand-loading of a program: an execve event with the
// program file's size. The paper logged these to estimate paging traffic
// (§3.2) and used them for the Figure 7 page-in experiment. The kernel
// does not model the program's address space; the event is the product.
func (p *Proc) Exec(path string) error {
	n, err := p.k.fs.Lookup(path)
	if err != nil {
		return err
	}
	if n.IsDir() {
		return fmt.Errorf("%w: %q", ErrNotExec, path)
	}
	p.k.metaResolve(path)
	p.k.Stats.Execs++
	p.k.record(trace.Event{
		Time: p.k.now(), Kind: trace.KindExec,
		File: trace.FileID(n.Ino()), User: p.user, Size: n.Size(),
	})
	return nil
}
