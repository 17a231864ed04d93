package obs

import (
	"fmt"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/sourcetest"
)

// TestInstrumentedSourceConformance: the counting wrapper must be
// invisible to the stream — same events, same EOF behavior, for every
// batch size.
func TestInstrumentedSourceConformance(t *testing.T) {
	want := make([]trace.Event, 600)
	for i := range want {
		want[i] = trace.Event{Time: trace.Time(i), Kind: trace.KindOpen,
			OpenID: trace.OpenID(i + 1), File: 1, User: 1}
	}
	reg := NewRegistry()
	reg.SetEnabled(true)
	n := 0
	mk := func(t *testing.T) trace.Source {
		n++
		return reg.Instrument(fmt.Sprintf("conformance/%d", n), trace.NewSliceSource(want))
	}
	sourcetest.Run(t, mk, want)
}
