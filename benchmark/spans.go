package main

import "time"

// span is one timed interval of a traced census pass: a call into a
// layer, or one batch inside such a call. Spans are kept in memory and
// written out when the run ends (-spans).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"` // events (or bytes, accesses) the span covered
}

// recorder collects the spans of one pass on one goroutine. A nil
// recorder records nothing, which is how untraced passes run.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span inside the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int, count int64) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.spans[id].Count = count
	r.open = r.open[:len(r.open)-1]
}

// totals sums span durations by name, in nanoseconds: total is the
// whole duration, self the duration minus that of child spans.
func (r *recorder) totals() (total, self map[string]int64) {
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	total, self = map[string]int64{}, map[string]int64{}
	for i, s := range r.spans {
		total[s.Name] += s.End - s.Start
		self[s.Name] += s.End - s.Start - children[i]
	}
	return total, self
}
