package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// ManifestSchema is the run-manifest schema version; it bumps whenever
// a deterministic field changes meaning, so two manifests are only
// comparable at equal schema.
const ManifestSchema = 1

// RunInfo identifies one pipeline run for its manifest.
type RunInfo struct {
	// Command is the tool that ran (fstrace, fsanalyze, fscachesim,
	// fsreport, fsbench).
	Command string
	// Seed is the run's random seed — with Config, the full input of
	// every deterministic field.
	Seed int64
	// Config is the run's effective configuration, one string per knob.
	Config map[string]string
}

// StageRecord is one pipeline stage in the manifest's stage table.
// Name and events are deterministic; seconds, rate, and the
// allocation deltas are volatile.
type StageRecord struct {
	Name         string  `json:"name"`
	EventsIn     int64   `json:"events_in"`
	EventsOut    int64   `json:"events_out"`
	Seconds      float64 `json:"seconds,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	AllocBytes   int64   `json:"alloc_bytes,omitempty"`
	Allocs       int64   `json:"allocs,omitempty"`
}

// HistogramRecord is one histogram's manifest entry: the bucket upper
// bounds, the count in each bucket (the last is overflow), and the total.
// Every field is deterministic (order-independent under concurrent
// recording).
type HistogramRecord struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
}

// VersionInfo records the toolchain a manifest came from. Volatile by
// definition: the same run on a newer toolchain must canonicalize
// identically.
type VersionInfo struct {
	Go   string `json:"go,omitempty"`
	OS   string `json:"os,omitempty"`
	Arch string `json:"arch,omitempty"`
}

// Manifest is the JSON run manifest: the full configuration and
// telemetry record of one pipeline run. Stage records are sorted by
// name and metric maps marshal with sorted keys (encoding/json's map
// behavior), so equal runs produce byte-identical JSON.
type Manifest struct {
	Schema     int                        `json:"schema"`
	Command    string                     `json:"command"`
	Seed       int64                      `json:"seed"`
	Config     map[string]string          `json:"config,omitempty"`
	Stages     []StageRecord              `json:"stages,omitempty"`
	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]int64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramRecord `json:"histograms,omitempty"`
	Versions   VersionInfo                `json:"versions"`
}

// Manifest snapshots the registry into a run manifest. Open spans are
// reported with their live elapsed time and zero allocation deltas.
func (r *Registry) Manifest(info RunInfo) *Manifest {
	m := &Manifest{
		Schema:  ManifestSchema,
		Command: info.Command,
		Seed:    info.Seed,
		Config:  info.Config,
		Versions: VersionInfo{
			Go:   runtime.Version(),
			OS:   runtime.GOOS,
			Arch: runtime.GOARCH,
		},
	}
	if r == nil {
		return m
	}
	for _, s := range r.Spans() {
		ab, an := s.allocStats()
		m.Stages = append(m.Stages, StageRecord{
			Name:         s.Name(),
			EventsIn:     s.EventsIn(),
			EventsOut:    s.EventsOut(),
			Seconds:      s.Wall().Seconds(),
			EventsPerSec: s.EventsPerSec(),
			AllocBytes:   ab,
			Allocs:       an,
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		m.Counters = make(map[string]int64, len(r.counters))
		for _, k := range sortedKeys(r.counters) {
			m.Counters[k] = r.counters[k].Value()
		}
	}
	if len(r.gauges) > 0 {
		m.Gauges = make(map[string]int64, len(r.gauges))
		for _, k := range sortedKeys(r.gauges) {
			m.Gauges[k] = r.gauges[k].Value()
		}
	}
	if len(r.hists) > 0 {
		m.Histograms = make(map[string]HistogramRecord, len(r.hists))
		for _, k := range sortedKeys(r.hists) {
			m.Histograms[k] = r.hists[k].record()
		}
	}
	return m
}

// Canonical returns a copy of the manifest with every volatile field
// zeroed: stage wall times, rates, and allocation deltas; toolchain
// versions. What remains — stage order and event/byte counts, counter
// and gauge values, histogram bucket counts — is a pure function of
// (config, seed), and the manifest golden test holds it to a committed
// file byte for byte.
func (m *Manifest) Canonical() *Manifest {
	c := *m
	c.Versions = VersionInfo{}
	c.Stages = make([]StageRecord, len(m.Stages))
	for i, s := range m.Stages {
		s.Seconds = 0
		s.EventsPerSec = 0
		s.AllocBytes = 0
		s.Allocs = 0
		c.Stages[i] = s
	}
	return &c
}

// record snapshots the histogram as its manifest entry.
func (h *Histogram) record() HistogramRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.h.NumBuckets()
	rec := HistogramRecord{
		Bounds: make([]float64, n-1),
		Counts: make([]int64, n),
		Count:  int64(h.h.Total()),
	}
	for i := range rec.Counts {
		bound, w := h.h.Bucket(i)
		if i < n-1 {
			rec.Bounds[i] = bound
		}
		rec.Counts[i] = int64(w)
	}
	return rec
}

// JSON renders the manifest as indented JSON with a trailing newline.
func (m *Manifest) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the manifest to path as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.JSON()
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
