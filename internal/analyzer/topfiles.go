package analyzer

import (
	"sort"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// FileStat summarizes one file's activity over a trace: the raw material
// for "which files are the hot ones" questions. The paper observed that a
// few megabyte-scale administrative files absorb almost 20% of all
// accesses (Figure 2); TopAccum makes such files visible individually.
// Traces carry only file identifiers, as the 1985 traces did, so files
// are reported by id plus their observable properties.
type FileStat struct {
	File trace.FileID
	// Opens counts opens and creates; Execs counts execve events.
	Opens int64
	Execs int64
	// Bytes is the total data transferred to or from the file.
	Bytes int64
	// LastSize is the file's size when last observed.
	LastSize int64
	// Users counts distinct users that touched the file (capped at 2
	// plus: 1 means private, 2 means shared).
	Users int
}

// Accesses returns opens plus execs.
func (f *FileStat) Accesses() int64 { return f.Opens + f.Execs }

// TopAccum accumulates per-file statistics one event at a time; its state
// is bounded by the number of distinct files, never the event count. Feed
// events in time order, then call Top.
type TopAccum struct {
	files trace.Table[trace.FileID, topAcc]
	sc    *xfer.Scanner
}

type topAcc struct {
	stat  FileStat
	first trace.UserID
}

// NewTopAccum creates an empty accumulator.
func NewTopAccum() *TopAccum {
	a := &TopAccum{sc: xfer.NewScanner()}
	a.sc.OnTransfer = func(t xfer.Transfer) {
		a.get(t.File).stat.Bytes += t.Length
	}
	a.sc.OnOpenEnd = func(o xfer.OpenSummary) {
		a.get(o.File).stat.LastSize = o.SizeAtClose
	}
	return a
}

func (a *TopAccum) get(f trace.FileID) *topAcc {
	t := a.files.Put(f)
	t.stat.File = f
	return t
}

func (a *TopAccum) seen(t *topAcc, u trace.UserID) {
	switch {
	case t.stat.Users == 0:
		t.stat.Users = 1
		t.first = u
	case t.stat.Users == 1 && u != t.first:
		t.stat.Users = 2
	}
}

// Feed tallies one event. Events must arrive in time order.
func (a *TopAccum) Feed(e trace.Event) {
	switch e.Kind {
	case trace.KindCreate, trace.KindOpen:
		t := a.get(e.File)
		t.stat.Opens++
		a.seen(t, e.User)
	case trace.KindExec:
		t := a.get(e.File)
		t.stat.Execs++
		a.seen(t, e.User)
		if e.Size > t.stat.LastSize {
			t.stat.LastSize = e.Size
		}
	}
	a.sc.Feed(e)
}

// Top finishes the accumulation and returns the n most-accessed files
// (opens + execs), ties broken by bytes then id for determinism.
func (a *TopAccum) Top(n int) []FileStat {
	a.sc.Finish()
	out := make([]FileStat, 0, a.files.Len())
	a.files.Each(func(_ trace.FileID, t *topAcc) {
		out = append(out, t.stat)
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accesses() != out[j].Accesses() {
			return out[i].Accesses() > out[j].Accesses()
		}
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].File < out[j].File
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
