package workload

import (
	"fmt"

	"bsdtrace/internal/dist"
	"bsdtrace/internal/kernel"
	"bsdtrace/internal/trace"
)

// This file implements the application behaviors the traced machines ran:
// compiles, editor sessions, document formatting, CAD tool runs, mail, and
// the incessant small administrative lookups. Each behavior is expressed
// as real system calls against the simulated kernel, scheduled across
// virtual time, so open durations, seek patterns, and lifetimes all emerge
// from the mechanics rather than being sampled directly.

// xferDur models how long a transfer of n bytes keeps a file open: a small
// fixed per-open latency plus time proportional to size. The rate
// is tuned so that small files close within tens of milliseconds (the
// paper: 75% of opens last under half a second) while megabyte files take
// around a second.
func (g *generator) xferDur(src *dist.Source, n int64) trace.Time {
	const bytesPerSec = 1 << 20 // a 1985 disk+CPU moves ~1 MB/s
	ms := 8 + float64(n)*1000/bytesPerSec + src.Exp(6)
	return trace.Time(ms) * trace.Millisecond
}

// size returns the current size of path, or -1 if it does not exist.
func (g *generator) size(path string) int64 {
	n, err := g.k.FS().Lookup(path)
	if err != nil {
		return -1
	}
	return n.Size()
}

// readWhole opens path read-only now and reads it sequentially to the end,
// closing after a size-proportional delay. It returns the action duration
// (0 if the file is missing).
//
// A fraction of readers hold the file open while they compute — the
// compiler keeps the source open for the whole compilation, a pager sits
// on the file while a human reads — which produces the paper's Figure 3
// tail: most opens last well under half a second but ~10% exceed ten
// seconds.
func (g *generator) readWhole(src *dist.Source, p *kernel.Proc, path string) trace.Time {
	fd, err := p.Open(path, trace.ReadOnly)
	if err != nil {
		return 0
	}
	sz, _ := p.Fstat(fd)
	// Not every reader finishes the file: pagers are quit after the
	// first screen, file(1) looks only at the magic number, grep -l
	// stops at the first match. These abandoned sequential reads are a
	// large share of the paper's non-whole-file accesses.
	amount := int64(1) << 40 // to end of file
	if sz > 1024 && src.Bool(0.22) {
		amount = sz * int64(10+src.Intn(80)) / 100
	}
	dur := g.xferDur(src, min(amount, sz))
	switch {
	case src.Bool(0.08):
		dur += trace.Time(src.Exp(25_000)) * trace.Millisecond
	case src.Bool(0.25):
		dur += trace.Time(src.Exp(2_500)) * trace.Millisecond
	}
	g.closeAfter(dur, taskRead, p, fd, amount)
	return dur
}

// readPart opens path read-only and reads just the first n bytes.
func (g *generator) readPart(src *dist.Source, p *kernel.Proc, path string, n int64) trace.Time {
	fd, err := p.Open(path, trace.ReadOnly)
	if err != nil {
		return 0
	}
	dur := g.xferDur(src, n)
	g.closeAfter(dur, taskRead, p, fd, n)
	return dur
}

// writeWhole creates path (truncating any previous contents — new data)
// and writes n bytes sequentially.
func (g *generator) writeWhole(src *dist.Source, p *kernel.Proc, path string, n int64) trace.Time {
	fd, err := p.Create(path, trace.WriteOnly)
	if err != nil {
		return 0
	}
	dur := g.xferDur(src, n)
	g.closeAfter(dur, taskWrite, p, fd, n)
	return dur
}

// appendFile opens path write-only, seeks to the end, and writes n bytes:
// the mailbox/log idiom the paper gives as the canonical sequential-but-
// not-whole-file access.
func (g *generator) appendFile(src *dist.Source, p *kernel.Proc, path string, n int64) trace.Time {
	// Appenders split between write-only opens and the read-write opens
	// the paper describes for mailbox appends (its canonical sequential
	// read-write access).
	mode := trace.WriteOnly
	if src.Bool(0.30) {
		mode = trace.ReadWrite
	}
	fd, err := p.Open(path, mode)
	if err != nil {
		return 0
	}
	d1 := trace.Time(2+src.Intn(10)) * trace.Millisecond
	d2 := g.xferDur(src, n)
	g.eng.After(d1, func() {
		p.SeekEnd(fd)
		p.Write(fd, n)
		g.eng.After(d2, func() { p.Close(fd) })
	})
	return d1 + d2
}

// adminLookup models the positioned accesses to the big administrative
// files: open, then a handful of (seek to a position, transfer a little)
// pairs, then close. Table V's non-sequential read-write accesses and the
// 18-26% seek fraction of Table III both come from this pattern. With
// probability pWrite each positioned transfer is a write-in-place
// (updating a table entry), making the open read-write.
func (g *generator) adminLookup(src *dist.Source, p *kernel.Proc, path string, seeks int, pWrite float64) trace.Time {
	mode := trace.ReadOnly
	writes := src.Bool(pWrite)
	if writes {
		mode = trace.ReadWrite
		if seeks < 2 {
			seeks = 2 + src.Intn(6)
		}
	}
	fd, err := p.Open(path, mode)
	if err != nil {
		return 0
	}
	t := g.newTask(taskAdmin)
	t.src, t.p, t.fd, t.writes = src, p, fd, writes
	t.n, _ = p.Fstat(fd)
	if t.n < 4096 {
		seeks = 1
	}
	t.i = seeks
	d0 := trace.Time(2+src.Intn(8)) * trace.Millisecond
	g.eng.AfterRunner(d0, t)
	return d0 + trace.Time(seeks*16)*trace.Millisecond
}

// adminStep runs one step of an adminLookup: the close once no transfers
// are left, else one (seek, transfer) pair and the schedule of the next.
func (g *generator) adminStep(t *task) {
	if t.i == 0 {
		t.p.Close(t.fd)
		g.release(t)
		return
	}
	src := t.src
	// Seek to an entry and transfer a few hundred bytes. Lookups
	// concentrate heavily on a hot region — recent logins in the log,
	// popular hosts in the network table — with an occasional cold
	// probe; this is what keeps the paper's moderate-sized caches
	// effective on these megabyte-scale files.
	span := max(t.n-2048, 1)
	var off int64
	if src.Bool(0.85) {
		off = int64(src.Exp(float64(span) / 24))
		if off >= span {
			off = span - 1
		}
	} else {
		off = src.Int63n(span)
	}
	t.p.Seek(t.fd, off)
	n := int64(src.LogNormal(900, 1.8))
	if n < 64 {
		n = 64
	}
	if n > 64<<10 {
		n = 64 << 10
	}
	if t.writes && src.Bool(0.5) {
		t.p.Write(t.fd, n)
	} else {
		t.p.Read(t.fd, n)
	}
	d := trace.Time(3+src.Intn(25)) * trace.Millisecond
	if src.Bool(0.2) {
		d += trace.Time(src.Exp(800)) * trace.Millisecond
	}
	t.i--
	g.eng.AfterRunner(d, t)
}

// adminSeeks draws the number of positioned transfers for one
// administrative-file access. Most are a single reposition followed by one
// transfer (the paper's dominant non-whole-file shape: Table V counts
// those as sequential); a minority walk the file with several seeks.
func adminSeeks(src *dist.Source) int {
	if src.Bool(0.34) {
		return 2 + src.Intn(8)
	}
	return 1
}

// compile models one edit-compile cycle's compiler run: the canonical
// source of the paper's seconds-scale temp file lifetimes. The compiler
// reads the source and a few popular headers, writes an assembler temp
// file, the assembler reads it back and writes the object file, and the
// temp file is deleted as soon as it has been translated (paper §5.3).
func (g *generator) compile(src *dist.Source, uid trace.UserID, seqno int64) trace.Time {
	sources := g.img.srcFiles[uid]
	if len(sources) == 0 {
		sources = g.img.decks[uid] // CAD users compile decks' support code
	}
	if len(sources) == 0 {
		return 0
	}
	p := g.k.NewProc(uid)
	sf := sources[src.Intn(len(sources))]
	srcPath := sf.path
	srcSize := g.size(srcPath)
	if srcSize < 0 {
		return 0
	}
	p.Exec(g.img.cc)

	var elapsed trace.Time
	// The preprocessor reads the source and headers.
	elapsed += g.readWhole(src, p, srcPath)
	nHdr := 3 + src.Intn(7)
	for i := 0; i < nHdr; i++ {
		h := g.img.headers[g.img.headerPick.Draw()]
		elapsed += g.readWhole(src, p, h)
	}

	tmp := fmt.Sprintf("/tmp/ctm%d.%d.s", uid, seqno)
	asmSize := srcSize*3/2 + int64(src.Intn(2048))
	after := elapsed + trace.Time(20+src.Intn(100))*trace.Millisecond
	g.eng.After(after, func() {
		p2 := g.k.NewProc(uid)
		p2.Exec(g.img.cc) // ccom pass
		d := g.writeWhole(src, p2, tmp, asmSize)
		g.eng.After(d+trace.Time(10+src.Intn(40))*trace.Millisecond, func() {
			// The assembler reads the temp and writes the object.
			p3 := g.k.NewProc(uid)
			p3.Exec(g.img.as)
			d2 := g.readWhole(src, p3, tmp)
			d3 := g.writeWhole(src, p3, sf.obj, srcSize*5/4+int64(src.Intn(2048)))
			dd := max(d2, d3) + trace.Time(5+src.Intn(20))*trace.Millisecond
			g.eng.After(dd, func() {
				// Temp deleted seconds after creation: a short lifetime.
				p3.Unlink(tmp)
			})
		})
	})
	return after + trace.Time(500)*trace.Millisecond
}

// link models an occasional ld run: reads the user's object files and
// parts of the libraries, writes the executable.
func (g *generator) link(src *dist.Source, uid trace.UserID) trace.Time {
	p := g.k.NewProc(uid)
	p.Exec(g.img.ld)
	var elapsed trace.Time
	for _, s := range g.img.srcFiles[uid] {
		if g.size(s.obj) >= 0 && src.Bool(0.7) {
			elapsed += g.readWhole(src, p, s.obj)
		}
	}
	// Archives are consulted by offset, not read whole.
	lib := g.img.libs[src.Intn(len(g.img.libs))]
	elapsed += g.adminLookup(src, p, lib, adminSeeks(src), 0)
	out := g.img.homes[uid] + "/a.out"
	elapsed += g.writeWhole(src, p, out, 30<<10+int64(src.Intn(60<<10)))
	return elapsed
}

// runProgram executes the user's program, which reads a data file and
// writes an output file that is examined and deleted shortly after — the
// paper's "circuit simulator generates output listings that are examined
// and then deleted" pattern in miniature.
func (g *generator) runProgram(src *dist.Source, uid trace.UserID, seqno int64) trace.Time {
	bin := g.img.homes[uid] + "/a.out"
	if g.size(bin) < 0 {
		bin = g.img.commands[g.img.cmdPick.Draw()]
	}
	p := g.k.NewProc(uid)
	p.Exec(bin)
	out := fmt.Sprintf("/tmp/out%d.%d", uid, seqno)
	dur := g.writeWhole(src, p, out, int64(src.LogNormal(5000, 1.1)))
	g.eng.After(dur+trace.Time(src.Exp(8000))*trace.Millisecond, func() {
		// Examine the output, then delete it within seconds to minutes.
		p2 := g.k.NewProc(uid)
		p2.Exec(g.img.commands[2]) // ls-class pager
		d := g.readWhole(src, p2, out)
		g.eng.After(d+trace.Time(src.Exp(4000))*trace.Millisecond, func() {
			p2.Unlink(out)
		})
	})
	return dur
}

// editSession models the interactive editor: it reads the file, keeps a
// temp file open for the whole session (the paper's example of the rare
// long-open file), and finally writes the file back and deletes the temp.
func (g *generator) editSession(src *dist.Source, uid trace.UserID, path string, seqno int64) trace.Time {
	if g.size(path) < 0 {
		return 0
	}
	p := g.k.NewProc(uid)
	p.Exec(g.img.editor)
	g.readWhole(src, p, g.img.homes[uid]+"/.exrc")
	g.readWhole(src, p, path)

	// vi-style backup: remove the stale backup and write a fresh copy of
	// the file being edited. Together with the compiler temps this keeps
	// the trace's unlink count near its create count, as in Table III.
	bak := path + "~"
	oldSize := g.size(path)
	if src.Bool(0.4) {
		g.eng.After(trace.Time(200+src.Intn(800))*trace.Millisecond, func() {
			if g.size(bak) >= 0 {
				p.Unlink(bak)
			}
			g.writeWhole(src, p, bak, oldSize)
		})
	}

	tmp := fmt.Sprintf("/tmp/Ex%d.%d", uid, seqno)
	tfd, err := p.Create(tmp, trace.WriteOnly)
	if err != nil {
		return 0
	}
	// Editing time: seconds to a few minutes, with periodic writes into
	// the open temp file.
	editFor := trace.Time(src.Exp(90_000)) * trace.Millisecond
	if editFor < 2*trace.Second {
		editFor = 2 * trace.Second
	}
	var autosave func()
	autosave = func() {
		if p.OpenFDs() == 0 {
			return
		}
		p.Write(tfd, int64(200+src.Intn(2000)))
		g.eng.After(trace.Time(10+src.Exp(20))*trace.Second, autosave)
	}
	g.eng.After(10*trace.Second, autosave)

	g.eng.After(editFor, func() {
		// Write the file back: a whole-file write with a slightly
		// changed size, overwriting the old data (a create).
		newSize := int64(float64(g.size(path)) * (0.85 + src.Float64()*0.4))
		if newSize < 200 {
			newSize = 200
		}
		d := g.writeWhole(src, p, path, newSize)
		g.eng.After(d, func() {
			p.Close(tfd)
			p.Unlink(tmp)
		})
	})
	return editFor
}

// formatDoc models nroff + the print spooler: read the document, write a
// spool file, print (read) it, and delete it.
func (g *generator) formatDoc(src *dist.Source, uid trace.UserID, seqno int64) trace.Time {
	docs := g.img.docFiles[uid]
	if len(docs) == 0 {
		return 0
	}
	doc := docs[src.Intn(len(docs))]
	sz := g.size(doc)
	if sz < 0 {
		return 0
	}
	p := g.k.NewProc(uid)
	p.Exec(g.img.nroff)
	d := g.readWhole(src, p, doc)
	spool := fmt.Sprintf("/tmp/spool%d.%d", uid, seqno)
	d += g.writeWhole(src, p, spool, sz)
	g.eng.After(d+trace.Time(2+src.Intn(10))*trace.Second, func() {
		// The printer daemon picks the job up, prints, and removes it.
		p2 := g.k.NewProc(0) // daemon user
		p2.Exec(g.img.lpr)
		d2 := g.readWhole(src, p2, spool)
		g.eng.After(d2+trace.Time(src.Exp(20_000))*trace.Millisecond, func() {
			p2.Unlink(spool)
		})
	})
	return d
}

// cadRun models a circuit simulation: read the deck whole, write a large
// listing, examine it, and delete it before the next run.
func (g *generator) cadRun(src *dist.Source, uid trace.UserID, seqno int64) trace.Time {
	decks := g.img.decks[uid]
	if len(decks) == 0 {
		return 0
	}
	deck := decks[src.Intn(len(decks))].path
	sz := g.size(deck)
	if sz < 0 {
		return 0
	}
	p := g.k.NewProc(uid)
	p.Exec(g.img.spice)
	d := g.readWhole(src, p, deck)
	listing := fmt.Sprintf("/tmp/sim%d.%d.lst", uid, seqno)
	lsz := sz*3 + int64(src.Intn(100<<10))
	if lsz > 1500<<10 {
		lsz = 1500 << 10
	}
	runFor := trace.Time(5+src.Exp(20)) * trace.Second
	g.eng.After(d+runFor, func() {
		d2 := g.writeWhole(src, p, listing, lsz)
		g.eng.After(d2+trace.Time(2+src.Exp(15))*trace.Second, func() {
			p2 := g.k.NewProc(uid)
			p2.Exec(g.img.commands[2])
			d3 := g.readWhole(src, p2, listing)
			g.eng.After(d3+trace.Time(src.Exp(60_000))*trace.Millisecond, func() {
				p2.Unlink(listing)
			})
		})
	})
	return d + runFor
}

// mailCheck reads the mailbox. Usually the reader seeks to where it left
// off and reads just the new messages (a positioned sequential read);
// sometimes it reads the whole box; occasionally it saves-and-empties the
// mailbox, truncating it — the trace's main source of truncate events.
func (g *generator) mailCheck(src *dist.Source, uid trace.UserID) trace.Time {
	p := g.k.NewProc(uid)
	p.Exec(g.img.mailer)
	if src.Bool(0.6) {
		g.readWhole(src, p, g.img.homes[uid]+"/.mailrc")
	}
	mbox := g.img.mailbox[uid]
	sz := g.size(mbox)
	if sz < 0 {
		return 0
	}
	var dur trace.Time
	if sz > 4096 && src.Bool(0.55) {
		// Read only the tail: seek to a saved offset, read to the end.
		fd, err := p.Open(mbox, trace.ReadOnly)
		if err != nil {
			return 0
		}
		off := sz * int64(50+src.Intn(45)) / 100
		d1 := trace.Time(2+src.Intn(10)) * trace.Millisecond
		d2 := g.xferDur(src, sz-off)
		g.eng.After(d1, func() {
			p.Seek(fd, off)
			p.Read(fd, 1<<40)
			g.eng.After(d2, func() { p.Close(fd) })
		})
		dur = d1 + d2
	} else {
		dur = g.readWhole(src, p, mbox)
	}
	if src.Bool(0.15) {
		// Save messages elsewhere and empty the box.
		g.eng.After(dur+trace.Time(100+src.Intn(2000))*trace.Millisecond, func() {
			p.Truncate(mbox, 0)
		})
	}
	return dur
}

// rwhoCheck models the rwho/ruptime readers: open and read each of a
// handful of the small host status files. It is the counterweight to the
// status daemon's writes and a large population of small whole-file reads
// (paper Figure 2: most accessed files are short).
func (g *generator) rwhoCheck(src *dist.Source, uid trace.UserID) trace.Time {
	p := g.k.NewProc(uid)
	p.Exec(g.img.commands[18]) // who
	n := 4 + src.Intn(10)
	t := g.newTask(taskRwho)
	t.src, t.p, t.limit = src, p, n
	g.rwhoStep(t)
	return trace.Time(n*15) * trace.Millisecond
}

// rwhoStep reads the next status file of an rwhoCheck and schedules the
// step after it, or ends the walk.
func (g *generator) rwhoStep(t *task) {
	if t.i >= t.limit {
		g.release(t)
		return
	}
	d := g.readWhole(t.src, t.p, g.img.status[(t.i*7)%len(g.img.status)])
	t.i++
	g.eng.AfterRunner(d+trace.Time(1+t.src.Intn(6))*trace.Millisecond, t)
}

// debugSession models dbx-style positioned reads of a large binary: open
// the executable, seek around, and pull in symbol tables and code pages —
// big non-sequential read-only transfers (the paper's Table V shows a
// third of all bytes moving non-sequentially).
func (g *generator) debugSession(src *dist.Source, uid trace.UserID) trace.Time {
	bin := g.img.homes[uid] + "/a.out"
	if g.size(bin) < 0 {
		bin = g.img.commands[g.img.cmdPick.Draw()]
	}
	p := g.k.NewProc(uid)
	p.Exec("/bin/dbx")
	fd, err := p.Open(bin, trace.ReadOnly)
	if err != nil {
		return 0
	}
	sz, _ := p.Fstat(fd)
	n := 2 + src.Intn(4)
	var step func(i int)
	step = func(i int) {
		if i >= n {
			p.Close(fd)
			return
		}
		off := src.Int63n(max(sz/4, 1))
		p.Seek(fd, off)
		chunk := int64(8<<10 + src.Intn(16<<10))
		p.Read(fd, chunk)
		g.eng.After(trace.Time(30+src.Intn(400))*trace.Millisecond, func() { step(i + 1) })
	}
	d0 := trace.Time(5+src.Intn(20)) * trace.Millisecond
	g.eng.After(d0, func() { step(0) })
	return d0 + trace.Time(n*200)*trace.Millisecond
}

// adminScan models accounting reports: a large positioned sequential read
// out of the login log (seek to yesterday's records, read tens to hundreds
// of kilobytes).
func (g *generator) adminScan(src *dist.Source, uid trace.UserID) trace.Time {
	path := g.img.loginLog
	sz := g.size(path)
	if sz < 65536 {
		return 0
	}
	p := g.k.NewProc(uid)
	p.Exec(g.img.commands[17]) // ps-class reporting tool
	fd, err := p.Open(path, trace.ReadOnly)
	if err != nil {
		return 0
	}
	off := src.Int63n(sz / 2)
	amount := 10<<10 + src.Int63n(30<<10)
	d1 := trace.Time(2+src.Intn(10)) * trace.Millisecond
	d2 := g.xferDur(src, amount)
	g.eng.After(d1, func() {
		p.Seek(fd, off)
		p.Read(fd, amount)
		g.eng.After(d2, func() { p.Close(fd) })
	})
	return d1 + d2
}

func (g *generator) mailDeliver(src *dist.Source, from trace.UserID, to trace.UserID) trace.Time {
	p := g.k.NewProc(from)
	return g.appendFile(src, p, g.img.mailbox[to], int64(1500+src.Intn(8000)))
}

// shellCommand models the constant background of small program runs: exec
// a popular command, read the user's startup file or a small file, and
// often consult an administrative table (who, finger, rwho all walk
// /etc/wtmp-style files by offset).
func (g *generator) shellCommand(src *dist.Source, uid trace.UserID) trace.Time {
	p := g.k.NewProc(uid)
	// Shell builtins and history lookups touch files without an exec.
	if src.Bool(0.32) {
		p.Exec(g.img.commands[g.img.cmdPick.Draw()])
	}
	var d trace.Time
	switch {
	case src.Bool(0.5):
		// Consult an administrative table by position.
		adm := g.img.admin[src.Intn(len(g.img.admin))]
		d = g.adminLookup(src, p, adm, adminSeeks(src), 0.15)
	case src.Bool(0.35):
		d = g.readWhole(src, p, g.img.homes[uid]+"/.profile")
		if src.Bool(0.4) {
			g.readWhole(src, p, g.img.homes[uid]+"/.login")
		}
	case src.Bool(0.55):
		// Page through part of a random source/doc file.
		if f := g.userFile(src, uid); f != "" {
			if sz := g.size(f); sz > 0 {
				n := sz
				if src.Bool(0.5) {
					n = sz/2 + 1
				}
				d = g.readPart(src, p, f, n)
			}
		}
	default:
		// Command ran without touching user files (date, ps, ...).
	}
	// Pipelines spill tiny scratch files into /tmp (sort temps, shell
	// heredocs) and remove them seconds later: the bulk of the trace's
	// unlink events and its shortest-lived files.
	if src.Bool(0.38) {
		scratch := fmt.Sprintf("/tmp/sh%d.%d", uid, g.k.Stats.Creates)
		sd := g.writeWhole(src, p, scratch, int64(100+src.Intn(3000)))
		g.eng.After(sd+trace.Time(200+src.Exp(4000))*trace.Millisecond, func() {
			p.Unlink(scratch)
		})
	}
	// Session activity also appends to the login log occasionally.
	if src.Bool(0.30) {
		g.appendFile(src, g.k.NewProc(uid), g.img.loginLog, int64(72))
	}
	return d + trace.Time(5+src.Intn(30))*trace.Millisecond
}

// browseArchive models the cold tail: reading a manual page or an old
// project file chosen nearly uniformly from a large, rarely-touched
// corpus. These are the compulsory misses that persist at any cache size.
func (g *generator) browseArchive(src *dist.Source, uid trace.UserID) trace.Time {
	if len(g.img.archive) == 0 {
		return 0
	}
	p := g.k.NewProc(uid)
	if src.Bool(0.5) {
		p.Exec(g.img.commands[34]) // man
	}
	n := 1 + src.Intn(2)
	var total trace.Time
	for i := 0; i < n; i++ {
		f := g.img.archive[src.Intn(len(g.img.archive))]
		total += g.readWhole(src, p, f)
	}
	return total
}

// userFile picks one of the personal files of whichever kind the user
// has: sources, documents or decks. It returns "" if the user has none.
func (g *generator) userFile(src *dist.Source, uid trace.UserID) string {
	if f := g.img.srcFiles[uid]; len(f) > 0 {
		return f[src.Intn(len(f))].path
	}
	if f := g.img.docFiles[uid]; len(f) > 0 {
		return f[src.Intn(len(f))]
	}
	if f := g.img.decks[uid]; len(f) > 0 {
		return f[src.Intn(len(f))].path
	}
	return ""
}
