// Package obs is the pipeline's observability layer: a metrics registry
// whose contents snapshot to a deterministic JSON run manifest. Beyond
// the standard library it depends only on trace and stats.
//
// The pipeline — generate → merge → recover → analyze → tape → simulate
// — is a chain of trace.Source stages, and obs instruments it at exactly
// that seam: Registry.Instrument wraps any Source in an event-counting
// span, stages publish their closing statistics (repair budgets, tape
// shapes, per-configuration cache counters) as named counters, and the
// whole registry renders either live (the -progress stderr line, the
// -debug-addr expvar endpoint) or post-hoc (the -manifest run manifest,
// whose deterministic fields are the structural fingerprint of a run).
//
// Everything is nil-safe and off by default: a nil or disabled Registry
// hands back typed nil metrics whose methods return immediately, and
// Instrument returns its source untouched, so an uninstrumented run pays
// zero allocations and no atomic traffic per event (the overhead guard
// in source_test.go holds the disabled path to exactly that).
//
// The determinism contract (DESIGN.md §8): counter values, span event
// counts, span byte payloads, histogram bucket counts, and the
// name-sorted order of all three are pure functions of (config, seed) —
// byte-identical across runs, worker counts, and scheduling. Wall times,
// rates, allocation deltas, and toolchain versions are volatile;
// Manifest.Canonical strips them, and the manifest golden test holds
// the remainder to a committed fingerprint.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"bsdtrace/internal/stats"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is usable; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set replaces the counter's value. Publishing hooks use it to copy a
// stage's closing statistics into the registry in one step.
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. A nil Gauge ignores all
// operations.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a stats.Histogram's fixed buckets.
// The mutex makes recording safe while /debug/vars snapshots the live
// registry. Each observation adds weight 1, and float sums of whole
// numbers are exact below 2^53, so the bucket counts do not depend on
// recording order and belong in the canonical manifest. A nil Histogram
// ignores all operations.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Record adds one observation.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(v, 1)
	h.mu.Unlock()
}

// Registry is a named collection of metrics. Metrics are created on
// first use and live for the registry's lifetime; all methods are safe
// for concurrent use. A nil or disabled registry is a no-op factory:
// every getter returns nil, which every metric method tolerates, so
// instrumented code never branches on whether observation is on.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []*Span
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetEnabled turns metric collection on or off. Metrics created while
// enabled keep their values if the registry is later disabled.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// Counter returns the named counter, creating it if needed. Returns nil
// (a no-op counter) when the registry is nil or disabled.
func (r *Registry) Counter(name string) *Counter {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil when
// the registry is nil or disabled.
func (r *Registry) Gauge(name string) *Gauge {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if needed (later calls ignore bounds). Returns nil when
// the registry is nil or disabled.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{h: stats.NewHistogram(bounds)}
		r.hists[name] = h
	}
	return h
}

// snapshotNames returns the registered metric names in sorted order —
// the manifest's deterministic iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
