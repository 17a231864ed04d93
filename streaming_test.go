// Streaming-vs-in-memory equivalence and memory guards for the scale
// engine: the streaming pipeline (sharded generation -> k-way merge ->
// incremental analyzer / tape builder) must produce byte-identical
// results to the materializing path it replaces, and its working state
// must not grow with the event count.
package bsdtrace

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// equivDuration is 8 hours — the paper's full trace span — unless -short.
func equivDuration(t *testing.T) trace.Time {
	if testing.Short() {
		return 30 * trace.Minute
	}
	return 8 * trace.Hour
}

var (
	equivOnce   sync.Once
	equivEvents []trace.Event
	equivErr    error
)

// equivTrace generates the seed-1 A5 trace once per test binary at the
// widest duration any test asks for (tests and the generator agree on
// equivDuration, so -short never mixes durations).
func equivTrace(t *testing.T) []trace.Event {
	equivOnce.Do(func() {
		res, err := workload.Generate(workload.Config{
			Profile: "A5", Seed: 1, Duration: equivDuration(t),
		})
		if err != nil {
			equivErr = err
			return
		}
		equivEvents = res.Events
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	return equivEvents
}

// TestStreamingAnalysisEquivalence: the incremental analyzer fed one
// event at a time — through the binary codec, as fsanalyze consumes
// trace files — produces an Analysis identical to the in-memory Analyze on the
// full seed trace.
func TestStreamingAnalysisEquivalence(t *testing.T) {
	events := equivTrace(t)
	want := analyzer.Analyze(events, analyzer.Options{})

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyzer.AnalyzeSource(r, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming Analysis diverges from in-memory Analysis")
	}
}

// TestStreamingTapeEquivalence: the incremental tape builder produces a
// tape identical to NewTape on the full seed trace.
func TestStreamingTapeEquivalence(t *testing.T) {
	events := equivTrace(t)
	want, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := xfer.BuildTape(trace.NewSliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops, want.Ops) {
		t.Fatalf("streaming tape Ops diverge: %d vs %d", len(got.Ops), len(want.Ops))
	}
	if !reflect.DeepEqual(got.Transfers, want.Transfers) {
		t.Fatalf("streaming tape Transfers diverge: %d vs %d", len(got.Transfers), len(want.Transfers))
	}
	if !reflect.DeepEqual(got.OldSizes, want.OldSizes) {
		t.Fatalf("streaming tape OldSizes diverge")
	}
	if got.Unclosed != want.Unclosed {
		t.Fatalf("streaming tape Unclosed = %d, want %d", got.Unclosed, want.Unclosed)
	}
}

// TestShardedGenerationDeterministic: the command-level determinism
// contract — same seed and shard count, same merged fleet trace; and one
// shard is the unsharded trace exactly.
func TestShardedGenerationDeterministic(t *testing.T) {
	cfg := workload.Config{Profile: "A5", Seed: 1, Duration: 20 * trace.Minute, Shards: 4}
	a, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("sharded generation not run-to-run deterministic")
	}

	cfg.Shards = 1
	one, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 0
	plain, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Events, plain.Events) {
		t.Fatal("Shards=1 changed the trace")
	}
}

// allocDelta measures heap bytes allocated by f.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamAnalyzeMemoryGuard is the allocation regression guard for
// the streaming analyzer: analyzing N events must allocate far less
// than materializing them would (the event slice alone costs ~88 bytes
// per event, before any analysis). The analyzer's state scales with the
// distinct-file population, not the event count — about 5.3 B/event
// amortized on the 8-hour seed trace — so the guard trips at 16 B/event,
// about three times that.
func TestStreamAnalyzeMemoryGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; guard calibrated for the plain allocator")
	}
	if testing.Short() {
		t.Skip("B/event guard needs the 8-hour trace; fixed costs dominate short fixtures")
	}
	events := equivTrace(t)
	// Warm-up run so one-time costs (histogram arenas) don't bill the
	// measured pass.
	if _, err := analyzer.AnalyzeSource(trace.NewSliceSource(events), analyzer.Options{}); err != nil {
		t.Fatal(err)
	}
	var a *analyzer.Analysis
	delta := allocDelta(func() {
		var err error
		a, err = analyzer.AnalyzeSource(trace.NewSliceSource(events), analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(a)
	perEvent := float64(delta) / float64(len(events))
	if perEvent > 16 {
		t.Errorf("streaming analyzer allocated %.1f B/event over %d events (%d bytes total); "+
			"the guard allows 16, about three times the 5.3 measured",
			perEvent, len(events), delta)
	}
}

// TestMergeMemoryGuard: the k-way merge over many sources must stay
// O(sources), not O(events) — draining a wide merge allocates a bounded
// number of bytes per event.
func TestMergeMemoryGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; guard calibrated for the plain allocator")
	}
	if testing.Short() {
		t.Skip("B/event guard needs the 8-hour trace; fixed costs dominate short fixtures")
	}
	events := equivTrace(t)
	// Split the trace round-robin into 16 time-ordered strands. Remapped
	// ids don't matter here; only allocation behavior is measured.
	const n = 16
	strands := make([][]trace.Event, n)
	for i, e := range events {
		strands[i%n] = append(strands[i%n], e)
	}
	drain := func() {
		sources := make([]trace.Source, n)
		for i := range strands {
			sources[i] = trace.NewSliceSource(strands[i])
		}
		if err := trace.Each(trace.NewMergeSource(sources...), trace.NewWriter(discardWriter{}).Write); err != nil {
			t.Fatal(err)
		}
	}
	drain() // warm up
	delta := allocDelta(drain)
	perEvent := float64(delta) / float64(len(events))
	if perEvent > 8 {
		t.Errorf("16-way merge allocated %.1f B/event (%d bytes total); want O(sources) state only",
			perEvent, delta)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
