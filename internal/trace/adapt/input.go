package adapt

import (
	"errors"
	"fmt"
	"io"

	"bsdtrace/internal/obs"
	"bsdtrace/internal/trace"
)

// Input is one trace being ingested under the partial-ingest contract
// every trace reader shares (DESIGN.md §7). It reads any format: native
// binary (v1 or v2), native text, or a foreign format through its
// adapter. A strict input passes the stream through as read and fails
// Check if the reader skipped damage; a lenient input repairs the stream
// (trace.LenientSource) and reports the cost through Damage. Foreign
// adapters fail on a damaged line instead of skipping it, so they take
// no -lenient.
//
// Input is a trace.Source; NextBatch hands the reader's batches straight
// through. Check, Damage and the accounting read the state the stream
// was drained to, so call them after the last NextBatch.
type Input struct {
	src     trace.Source
	rdr     *trace.Reader        // native binary input
	ls      *trace.LenientSource // lenient input
	foreign Source               // foreign input
}

// NewInput opens r in format f. text selects the native text format;
// lenient installs the repair pass. Both apply only to FormatBSD.
func NewInput(r io.Reader, f Format, text, lenient bool) (*Input, error) {
	in := &Input{}
	if f != FormatBSD {
		switch {
		case text:
			return nil, errors.New("-text applies only to -format bsd")
		case lenient:
			return nil, errors.New("-lenient applies only to -format bsd (foreign adapters fail on damaged lines)")
		}
		src, err := NewSource(f, r)
		if err != nil {
			return nil, err
		}
		in.src, in.foreign = src, src
		return in, nil
	}
	if text {
		// The text format is line-oriented and small: read it whole.
		events, err := trace.ReadText(r)
		if err != nil {
			return nil, err
		}
		in.src = trace.NewSliceSource(events)
	} else {
		rdr, err := trace.NewReader(r)
		if err != nil {
			return nil, err
		}
		in.src, in.rdr = rdr, rdr
	}
	if lenient {
		in.ls = trace.NewLenientSource(in.src)
		in.src = in.ls
	}
	return in, nil
}

// NextBatch reads the next events.
func (in *Input) NextBatch(buf []trace.Event) (int, error) { return in.src.NextBatch(buf) }

// Skipped returns the damage the native binary reader stepped past.
func (in *Input) Skipped() trace.SkipStats {
	if in.rdr == nil {
		return trace.SkipStats{}
	}
	return in.rdr.Skipped()
}

// Repairs returns a lenient input's repair budget.
func (in *Input) Repairs() trace.RepairStats {
	if in.ls == nil {
		return trace.RepairStats{}
	}
	return in.ls.Stats()
}

// Truncated returns the decode error that ended a lenient input early,
// or nil.
func (in *Input) Truncated() error {
	if in.ls == nil {
		return nil
	}
	return in.ls.Truncated()
}

// Stats returns a foreign input's import accounting.
func (in *Input) Stats() Stats {
	if in.foreign == nil {
		return Stats{}
	}
	return in.foreign.Stats()
}

// Check is the strict verdict on a drained input: it fails a strict
// input from which the reader skipped damage. The caller adds how to
// ask for a lenient rerun.
func (in *Input) Check() error {
	if skip := in.Skipped(); in.ls == nil && !skip.Zero() {
		return fmt.Errorf("partial ingest (%v)", skip)
	}
	return nil
}

// Damage lists what a drained lenient input lost: the decode error that
// truncated it, and the skipped and repaired records. It is empty for a
// clean or strict input.
func (in *Input) Damage() []string {
	if in.ls == nil {
		return nil
	}
	var d []string
	if err := in.ls.Truncated(); err != nil {
		d = append(d, fmt.Sprintf("stream truncated at decode error: %v", err))
	}
	if skip, st := in.Skipped(), in.ls.Stats(); !skip.Zero() || !st.Zero() {
		d = append(d, fmt.Sprintf("degraded ingest: %v; repaired: %v", skip, st))
	}
	return d
}

// Publish copies the binary reader's skip accounting under skipPrefix
// and a lenient input's repair budget under repairPrefix into reg.
func (in *Input) Publish(reg *obs.Registry, skipPrefix, repairPrefix string) {
	if in.rdr != nil {
		obs.PublishSkip(reg, skipPrefix, in.rdr.Skipped())
	}
	if in.ls != nil {
		obs.PublishRepair(reg, repairPrefix, in.ls.Stats())
	}
}
