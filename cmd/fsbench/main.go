// Command fsbench measures the streaming scale engine's throughput and
// writes a machine-readable benchmark record (BENCH_scale.json). For each
// user-population scale it times the stages of the streaming pipeline in
// isolation:
//
//   - generate: serial workload generation (one shard, one goroutine),
//     streamed to a discarding sink — the per-core baseline;
//   - parallel-generate: sharded generation across worker goroutines
//     with batched channels and the deterministic k-way merge — the
//     multi-core hot path;
//   - merge: the k-way merge over 8 pre-split strands of the trace;
//   - stream-analyze: the incremental Section-5 analyzer consuming the
//     trace in batches;
//   - tape-build: the incremental transfer-tape builder doing the same;
//   - recover: the self-healing repair pass (the -lenient ingestion
//     tax) streaming the same trace;
//   - policy-sweep-lru: the Figure 5 cache-size grid replayed LRU-only
//     (events = logical accesses, summed over the grid);
//   - policy-sweep-zoo: the same grid across all nine replacement
//     policies — the bookkeeping tax of the adaptive policies, which
//     -smoke bounds to 1.5x of the LRU-only row per access.
//
// Each stage reports events/second plus the GOMAXPROCS it ran at and its
// worker count, so serial and parallel rows land in one file and a
// regression in any layer shows up in its own row rather than hiding in
// an end-to-end number. The -procs flag sweeps GOMAXPROCS so one run can
// record the scaling curve of the parallel stages.
//
// Every stage is timed by an obs span — the same instrument the run
// manifest snapshots — so BENCH_scale.json and the -manifest output are
// two views of one measurement and can never disagree.
//
// Usage:
//
//	fsbench                          # scales 1, 4, 16; 1h traces
//	fsbench -scales 1,8 -duration 30m
//	fsbench -procs 1,4 -o BENCH_scale.json
//	fsbench -smoke                   # CI: assert the parallel rows
//	fsbench -manifest run.json -progress
//	fsbench -debug-addr :6060        # live expvar + pprof during the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// benchRecord is the file-level JSON shape.
type benchRecord struct {
	Config  benchConfig   `json:"config"`
	Results []stageResult `json:"results"`
}

type benchConfig struct {
	Profile    string    `json:"profile"`
	Seed       int64     `json:"seed"`
	DurationMS int64     `json:"duration_ms"`
	Scales     []float64 `json:"scales"`
	Procs      []int     `json:"procs"`
	Workers    int       `json:"workers"`
	GoMaxProcs int       `json:"go_max_procs"`
	GoVersion  string    `json:"go_version"`
}

type stageResult struct {
	Scale        float64 `json:"scale"`
	Stage        string  `json:"stage"`
	Procs        int     `json:"procs"`
	Workers      int     `json:"workers"`
	Events       int64   `json:"events"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// row converts a closed stage span into a benchmark row: the span is
// the single source of truth for both this JSON record and the run
// manifest. procs is the GOMAXPROCS the stage ran at; workers is its
// own concurrency (generation shards, merge strands — 1 for the serial
// stages).
func row(scale float64, stage string, procs, workers int, sp *obs.Span) stageResult {
	secs := sp.Wall().Seconds()
	events := sp.Events()
	eps := 0.0
	if secs > 0 {
		eps = float64(events) / secs
	}
	return stageResult{Scale: scale, Stage: stage, Procs: procs, Workers: workers,
		Events: events, Seconds: secs, EventsPerSec: eps}
}

func main() {
	var (
		duration  = flag.Duration("duration", time.Hour, "simulated time span per trace")
		seed      = flag.Int64("seed", 1, "random seed")
		scalesF   = flag.String("scales", "1,4,16", "comma-separated user-population scales")
		procsF    = flag.String("procs", "", "comma-separated GOMAXPROCS sweep (default: the real GOMAXPROCS, one pass)")
		workersN  = flag.Int("workers", 0, "parallel-generate shard count (default: the pass's GOMAXPROCS, minimum 2)")
		out       = flag.String("o", "BENCH_scale.json", "output file")
		smoke     = flag.Bool("smoke", false, "verify the record after the run: a parallel-generate row must exist, and on multi-proc passes must not be slower than serial generate")
		manifest  = flag.String("manifest", "", "also write the run manifest (config, stage spans, metrics) to this file")
		progress  = flag.Bool("progress", false, "live per-stage progress line on stderr (TTY only)")
		debugAddr = flag.String("debug-addr", "", "serve expvar and pprof on this address for live inspection")
	)
	flag.Parse()

	// Refuse bad values before any stage runs: the generator would
	// replace a span under its 1 ms tick with its 8-hour default.
	if duration.Milliseconds() <= 0 {
		fmt.Fprintf(os.Stderr, "fsbench: -duration %v: must be at least 1ms\n", *duration)
		os.Exit(2)
	}
	if *workersN < 0 {
		fmt.Fprintf(os.Stderr, "fsbench: -workers %d: must not be negative\n", *workersN)
		os.Exit(2)
	}
	var scales []float64
	for _, s := range strings.Split(*scalesF, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 || math.IsNaN(v) || math.IsInf(v, 1) {
			fmt.Fprintf(os.Stderr, "fsbench: bad scale %q\n", s)
			os.Exit(2)
		}
		scales = append(scales, v)
	}
	realProcs := runtime.GOMAXPROCS(0)
	procs := []int{realProcs}
	if *procsF != "" {
		procs = procs[:0]
		for _, s := range strings.Split(*procsF, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "fsbench: bad procs %q\n", s)
				os.Exit(2)
			}
			procs = append(procs, v)
		}
	}

	// The benchmark rows are read off obs spans, so the registry is
	// always on here; -manifest only controls whether it is written out.
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fsbench: debug server on http://%s/debug/vars\n", addr)
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.StartProgress(os.Stderr, reg)
	}

	rec := benchRecord{
		Config: benchConfig{
			Profile:    "A5",
			Seed:       *seed,
			DurationMS: duration.Milliseconds(),
			Scales:     scales,
			Procs:      procs,
			Workers:    *workersN,
			GoMaxProcs: realProcs,
			GoVersion:  runtime.Version(),
		},
	}

	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		for _, scale := range scales {
			results, err := benchScale(reg, *seed, trace.Time(duration.Milliseconds()), scale, p, *workersN)
			if err != nil {
				runtime.GOMAXPROCS(realProcs)
				prog.Stop()
				fmt.Fprintln(os.Stderr, "fsbench:", err)
				os.Exit(1)
			}
			rec.Results = append(rec.Results, results...)
			for _, r := range results {
				fmt.Printf("scale %4g  p%-2d w%-2d  %-17s %9d events  %8.3fs  %12.0f events/sec\n",
					r.Scale, r.Procs, r.Workers, r.Stage, r.Events, r.Seconds, r.EventsPerSec)
			}
		}
	}
	runtime.GOMAXPROCS(realProcs)
	prog.Stop()

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *manifest != "" {
		m := reg.Manifest(obs.RunInfo{
			Command: "fsbench",
			Seed:    *seed,
			Config: map[string]string{
				"profile":  "A5",
				"duration": duration.String(),
				"scales":   *scalesF,
				"procs":    *procsF,
			},
		})
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *manifest)
	}

	if *smoke {
		if err := smokeCheck(rec); err != nil {
			fmt.Fprintln(os.Stderr, "fsbench: smoke check failed:", err)
			os.Exit(1)
		}
		fmt.Println("smoke check ok")
	}
}

// smokeCheck is the CI assertion over a finished record: every
// (procs, scale) pass has a parallel-generate row, and on passes with
// more than one proc — backed by more than one physical core — the
// parallel row's throughput is at least the serial generate row's:
// parallelism must never cost throughput when there are cores to use.
// Single-proc passes, and sweeps that raise GOMAXPROCS past
// runtime.NumCPU on a small machine, only assert existence: with one
// core there is nothing for the shards to run on, so those rows
// document overhead rather than speedup.
func smokeCheck(rec benchRecord) error {
	cores := runtime.NumCPU()
	type key struct {
		procs int
		scale float64
	}
	serial := map[key]float64{}
	par := map[key]float64{}
	lru := map[key]float64{}
	zoo := map[key]float64{}
	for _, r := range rec.Results {
		k := key{r.Procs, r.Scale}
		switch r.Stage {
		case "generate":
			serial[k] = r.EventsPerSec
		case "parallel-generate":
			par[k] = r.EventsPerSec
		case "policy-sweep-lru":
			lru[k] = r.EventsPerSec
		case "policy-sweep-zoo":
			zoo[k] = r.EventsPerSec
		}
	}
	for k, s := range serial {
		p, ok := par[k]
		if !ok {
			return fmt.Errorf("no parallel-generate row for procs=%d scale=%g", k.procs, k.scale)
		}
		if k.procs > 1 && cores > 1 && p < s {
			return fmt.Errorf("parallel-generate slower than serial at procs=%d scale=%g: %.0f < %.0f events/sec",
				k.procs, k.scale, p, s)
		}
	}
	if len(serial) == 0 {
		return fmt.Errorf("no generate rows in record")
	}
	// The zoo replay counts one event per logical access per config, the
	// same unit as the LRU-only row, so per-access throughput across the
	// nine policies must stay within 1.5x of the LRU-only baseline — the
	// adaptive policies' bookkeeping tax, bounded.
	for k, l := range lru {
		z, ok := zoo[k]
		if !ok {
			return fmt.Errorf("no policy-sweep-zoo row for procs=%d scale=%g", k.procs, k.scale)
		}
		if z*1.5 < l {
			return fmt.Errorf("policy-sweep-zoo more than 1.5x slower than LRU-only at procs=%d scale=%g: %.0f vs %.0f accesses/sec",
				k.procs, k.scale, z, l)
		}
	}
	if len(lru) == 0 {
		return fmt.Errorf("no policy-sweep-lru rows in record")
	}
	return nil
}

// benchScale times the pipeline stages at one population scale, one obs
// span per stage, at the current GOMAXPROCS.
func benchScale(reg *obs.Registry, seed int64, duration trace.Time, scale float64, procs, workers int) ([]stageResult, error) {
	if workers <= 0 {
		workers = procs
	}
	if workers < 2 {
		workers = 2
	}
	serialCfg := workload.Config{
		Profile: "A5", Seed: seed, Duration: duration,
		UserScale: scale, Shards: 1,
	}
	parCfg := serialCfg
	parCfg.Shards = workers
	label := func(stage string) string { return fmt.Sprintf("%s/x%g/p%d", stage, scale, procs) }

	// Stage 1: serial generation, events discarded at the sink — one
	// shard, one goroutine, the per-core baseline nothing throttles.
	sp := reg.StartSpan(label("generate"))
	res, err := workload.GenerateStream(serialCfg, func(trace.Event) error { sp.AddOut(1); return nil })
	if err != nil {
		return nil, err
	}
	sp.End()
	workload.PublishStats(reg, label("kernel"), res.KernelStats)
	results := []stageResult{row(scale, "generate", procs, 1, sp)}

	// Stage 2: parallel sharded generation — worker goroutines pushing
	// batched channels through the deterministic merge. On one proc this
	// prices the coordination overhead; on many it shows the speedup.
	sp = reg.StartSpan(label("parallel-generate"))
	if _, err := workload.GenerateStream(parCfg, func(trace.Event) error { sp.AddOut(1); return nil }); err != nil {
		return nil, err
	}
	sp.End()
	results = append(results, row(scale, "parallel-generate", procs, workers, sp))

	// The remaining stages consume a materialized copy of the same trace
	// so each stage's cost is measured alone.
	memres, err := workload.Generate(serialCfg)
	if err != nil {
		return nil, err
	}
	events := memres.Events

	// Stage 3: 8-way merge over pre-split strands.
	const strands = 8
	split := make([][]trace.Event, strands)
	for i, e := range events {
		split[i%strands] = append(split[i%strands], e)
	}
	sources := make([]trace.Source, strands)
	for i := range split {
		sources[i] = trace.NewSliceSource(split[i])
	}
	sp = reg.StartSpan(label("merge"))
	m := obs.SpanSource(sp, trace.NewMergeSource(sources...))
	buf := trace.GetBatch()
	for {
		n, err := m.NextBatch(buf)
		if n == 0 && err != nil {
			break
		}
	}
	trace.PutBatch(buf)
	sp.End()
	results = append(results, row(scale, "merge", procs, strands, sp))

	// Stage 4: incremental analyzer, consuming through an instrumented
	// source so the span sees exactly what the analyzer does.
	sp = reg.StartSpan(label("stream-analyze"))
	if _, err := analyzer.AnalyzeSource(obs.SpanSource(sp, trace.NewSliceSource(events)), analyzer.Options{}); err != nil {
		return nil, err
	}
	sp.End()
	results = append(results, row(scale, "stream-analyze", procs, 1, sp))

	// Stage 5: incremental tape builder.
	sp = reg.StartSpan(label("tape-build"))
	tape, err := xfer.BuildTape(obs.SpanSource(sp, trace.NewSliceSource(events)))
	if err != nil {
		return nil, err
	}
	sp.End()
	tape.PublishMetrics(reg, label("tape"))
	results = append(results, row(scale, "tape-build", procs, 1, sp))

	// Stage 6: self-healing recovery pass over the same trace — the tax
	// the -lenient ingestion path adds on top of a plain stream read.
	sp = reg.StartSpan(label("recover"))
	rec := obs.SpanSource(sp, trace.NewRecoverSource(trace.NewSliceSource(events)))
	buf = trace.GetBatch()
	for {
		n, err := rec.NextBatch(buf)
		if n == 0 && err != nil {
			break
		}
	}
	trace.PutBatch(buf)
	sp.End()
	results = append(results, row(scale, "recover", procs, 1, sp))

	// Stage 7: the Figure 5 cache sweep replayed LRU-only — the
	// single-policy baseline. Events are the logical block accesses
	// replayed, summed over every configuration in the grid, so the
	// events/sec of this row and the zoo row below are directly
	// comparable per unit of replay work.
	sizes := cachesim.PaperCacheSizes()
	lruCfgs := make([]cachesim.Config, 0, len(sizes))
	for _, cs := range sizes {
		lruCfgs = append(lruCfgs, cachesim.Config{
			BlockSize: 4096, CacheSize: cs,
			Write: cachesim.DelayedWrite, Replacement: cachesim.LRU, Seed: seed,
		})
	}
	sp = reg.StartSpan(label("policy-sweep-lru"))
	rs, err := cachesim.MultiSimulate(tape, lruCfgs)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		sp.AddOut(r.LogicalAccesses)
	}
	sp.End()
	results = append(results, row(scale, "policy-sweep-lru", procs, len(lruCfgs), sp))

	// Stage 8: the same grid across the whole replacement-policy zoo.
	// The adaptive policies (ARC, LIRS, TinyLFU) do more bookkeeping per
	// access than LRU's list splice; the smoke check bounds that tax.
	sp = reg.StartSpan(label("policy-sweep-zoo"))
	zoo, err := cachesim.ZooSweepTape(tape, 4096, sizes, seed)
	if err != nil {
		return nil, err
	}
	for _, zr := range zoo {
		for _, r := range zr {
			sp.AddOut(r.LogicalAccesses)
		}
	}
	sp.End()
	results = append(results, row(scale, "policy-sweep-zoo", procs,
		len(sizes)*len(cachesim.AllReplacements()), sp))

	return results, nil
}
