package obs

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

func TestDisabledRegistryIsNoOpFactory(t *testing.T) {
	for name, reg := range map[string]*Registry{"disabled": NewRegistry(), "nil": nil} {
		if reg.Enabled() {
			t.Fatalf("%s registry reports enabled", name)
		}
		c := reg.Counter("c")
		c.Add(5)
		c.Set(9)
		if c.Value() != 0 {
			t.Fatalf("%s registry counter is live", name)
		}
		g := reg.Gauge("g")
		g.Set(7)
		if g.Value() != 0 {
			t.Fatalf("%s registry gauge is live", name)
		}
		reg.Histogram("h", []float64{1}).Record(3)
		if hs := reg.Manifest(RunInfo{}).Histograms; len(hs) != 0 {
			t.Fatalf("%s registry histogram is live: %v", name, hs)
		}
		sp := reg.StartSpan("s")
		sp.AddOut(1)
		sp.End()
		if sp.EventsIn() != 0 || sp.Name() != "" {
			t.Fatalf("%s registry span is live", name)
		}
		if spans := reg.Spans(); len(spans) != 0 {
			t.Fatalf("%s registry recorded spans: %v", name, spans)
		}
	}
}

func TestRegistryMetricsIdentityAndValues(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	c := reg.Counter("events")
	c.Add(2)
	c.Add(3)
	if reg.Counter("events") != c {
		t.Fatal("same name returned a different counter")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Set(11)
	if c.Value() != 11 {
		t.Fatalf("counter after Set = %d, want 11", c.Value())
	}
	g := reg.Gauge("depth")
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	if reg.Histogram("h", []float64{1, 2}) != reg.Histogram("h", []float64{99}) {
		t.Fatal("same name returned a different histogram")
	}
}

func TestSpanLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	sp := reg.StartSpan("stage")
	sp.eventsIn.Add(10)
	sp.AddOut(7)
	sp.End()
	w := sp.Wall()
	sp.End() // idempotent: wall stays frozen
	if sp.Wall() != w {
		t.Fatal("second End moved the frozen wall time")
	}
	if sp.EventsIn() != 10 || sp.EventsOut() != 7 {
		t.Fatalf("span totals = %d/%d", sp.EventsIn(), sp.EventsOut())
	}
	if sp.Events() != 7 {
		t.Fatalf("Events() = %d, want events-out when nonzero", sp.Events())
	}
	in := reg.StartSpan("input-only")
	in.eventsIn.Add(3)
	in.End()
	if in.Events() != 3 {
		t.Fatalf("Events() = %d, want events-in fallback", in.Events())
	}
}

func TestSpanAllocsPerEvent(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	sp := reg.StartSpan("alloc-stage")
	if got := sp.AllocsPerEvent(); got != 0 {
		t.Fatalf("AllocsPerEvent before any events = %v, want 0", got)
	}
	sp.AddOut(100)
	sink := make([][]byte, 0, 50)
	for i := 0; i < 50; i++ {
		sink = append(sink, make([]byte, 64))
	}
	_ = sink
	if got := sp.AllocsPerEvent(); got <= 0 {
		t.Fatalf("live AllocsPerEvent = %v, want > 0 after allocating", got)
	}
	sp.End()
	frozen := sp.AllocsPerEvent()
	if frozen <= 0 {
		t.Fatalf("frozen AllocsPerEvent = %v, want > 0", frozen)
	}
	if again := sp.AllocsPerEvent(); again != frozen {
		t.Fatalf("frozen AllocsPerEvent moved: %v then %v", frozen, again)
	}
	var nilSpan *Span
	if nilSpan.AllocsPerEvent() != 0 {
		t.Fatal("nil span AllocsPerEvent != 0")
	}
}

func TestSpansSortedByName(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		reg.StartSpan(n).End()
	}
	var names []string
	for _, s := range reg.Spans() {
		names = append(names, s.Name())
	}
	if strings.Join(names, ",") != "alpha,mid,zeta" {
		t.Fatalf("Spans() order = %v, want sorted by name", names)
	}
}

// fillRegistry performs one fixed sequence of instrumentation; two
// fills must canonicalize identically.
func fillRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.SetEnabled(true)
	sp := reg.StartSpan("stage/a")
	sp.AddOut(42)
	sp.End()
	reg.Counter("events.total").Set(42)
	reg.Gauge("depth").Set(3)
	h := reg.Histogram("sizes", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	for i := 0; i < 100; i++ {
		h.Record(float64(i))
	}
	return reg
}

func TestManifestCanonicalDeterminism(t *testing.T) {
	info := RunInfo{Command: "test", Seed: 7, Config: map[string]string{"k": "v"}}
	a, err := fillRegistry(t).Manifest(info).Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Sleep so the second fill's wall times differ — Canonical must
	// erase the difference.
	time.Sleep(2 * time.Millisecond)
	b, err := fillRegistry(t).Manifest(info).Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical manifests differ:\n%s\nvs\n%s", a, b)
	}
}

func TestManifestCanonicalStripsVolatile(t *testing.T) {
	reg := fillRegistry(t)
	m := reg.Manifest(RunInfo{Command: "test"})
	if m.Versions.Go == "" {
		t.Fatal("raw manifest missing toolchain version")
	}
	if m.Stages[0].Seconds == 0 {
		t.Fatal("raw manifest stage missing wall time")
	}
	c := m.Canonical()
	if c.Versions != (VersionInfo{}) {
		t.Fatal("Canonical kept toolchain versions")
	}
	for _, s := range c.Stages {
		if s.Seconds != 0 || s.EventsPerSec != 0 || s.AllocBytes != 0 || s.Allocs != 0 {
			t.Fatalf("Canonical kept volatile stage fields: %+v", s)
		}
	}
	// The raw manifest is untouched.
	if m.Stages[0].Seconds == 0 || m.Versions.Go == "" {
		t.Fatal("Canonical mutated the raw manifest")
	}
	if c.Stages[0].EventsOut != 42 || c.Counters["events.total"] != 42 {
		t.Fatal("Canonical dropped deterministic fields")
	}
}

// TestHistogramConcurrentRecordAndManifest: recording from several
// goroutines while the manifest snapshots the live registry, as
// /debug/vars does, is race-free, and the final record equals a
// stats.Histogram fed the same values serially.
func TestHistogramConcurrentRecordAndManifest(t *testing.T) {
	bounds := []float64{1, 10, 100, 1000}
	reg := NewRegistry()
	reg.SetEnabled(true)
	h := reg.Histogram("h", bounds)
	const workers, perWorker = 4, 500
	value := func(w, i int) float64 { return float64((w*perWorker+i)%1500) + 0.5 }

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Manifest(RunInfo{})
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(value(w, i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stopped

	want := stats.NewHistogram(bounds)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			want.Add(value(w, i), 1)
		}
	}
	got := reg.Manifest(RunInfo{}).Histograms["h"]
	if got.Count != int64(want.Total()) || !slices.Equal(got.Bounds, bounds) {
		t.Fatalf("record = %+v, want %v observations over bounds %v", got, want.Total(), bounds)
	}
	for i := 0; i < want.NumBuckets(); i++ {
		if _, w := want.Bucket(i); got.Counts[i] != int64(w) {
			t.Fatalf("bucket %d = %d, serial histogram has %v (counts %v)", i, got.Counts[i], w, got.Counts)
		}
	}
}

func TestPublishRepairAndSkip(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	PublishRepair(reg, "repair", trace.RepairStats{Events: 10, Emitted: 9, Dropped: 1})
	PublishSkip(reg, "skip", trace.SkipStats{Bytes: 64, Records: 2, Segments: 1})
	if got := reg.Counter("repair.events").Value(); got != 10 {
		t.Fatalf("repair.events = %d, want 10", got)
	}
	if got := reg.Counter("skip.bytes").Value(); got != 64 {
		t.Fatalf("skip.bytes = %d, want 64", got)
	}
	// Disabled: publishing must not create metrics.
	off := NewRegistry()
	PublishRepair(off, "repair", trace.RepairStats{Events: 1})
	off.SetEnabled(true)
	if m := off.Manifest(RunInfo{}); len(m.Counters) != 0 {
		t.Fatal("publishing to a disabled registry created counters")
	}
}

func TestProgressDrawsAndClears(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	sp := reg.StartSpan("working")
	sp.AddOut(123)
	var buf syncBuffer
	p := startProgress(&buf, reg, time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop() // safe twice
	out := buf.String()
	if !strings.Contains(out, "working") || !strings.Contains(out, "123 events") {
		t.Fatalf("progress line %q missing stage or count", out)
	}
	if !strings.HasSuffix(out, "\r\x1b[K") {
		t.Fatalf("Stop did not clear the line: %q", out)
	}
	var nilP *Progress
	nilP.Stop() // nil-safe
}

// syncBuffer is a mutex-guarded bytes.Buffer: the progress goroutine
// writes while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
