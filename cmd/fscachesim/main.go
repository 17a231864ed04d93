// Command fscachesim runs the paper's Section-6 disk block cache
// simulations over a trace file.
//
// Single runs:
//
//	fscachesim -cache 4M -block 4K -policy delayed a5.trace
//	fscachesim -cache 390K -policy flush -flush 30s a5.trace
//
// Paper sweeps and ablations:
//
//	fscachesim -sweep tableVI a5.trace     # cache size x write policy
//	fscachesim -sweep tableVII a5.trace    # block size x cache size
//	fscachesim -sweep fig7 a5.trace        # page-in simulated vs ignored
//	fscachesim -sweep replacement a5.trace # LRU vs FIFO vs Clock vs Random
//	fscachesim -sweep zoo a5.trace         # Figures 5-7 across the whole policy zoo
//	fscachesim -sweep tiers a5.trace       # RAM/flash/disk hierarchy with latency and wear
//	fscachesim -sweep flush a5.trace       # flush-back interval sweep
//
// Crash injection (the reliability side of the write-policy trade):
//
//	fscachesim -crash-sweep 64 a5.trace            # expected loss per policy
//	fscachesim -crash-at 2h -policy flush a5.trace # one crash instant
//
// Foreign traces import through the adapt package; every simulation
// consumes reconstructed transfers, so all of them run for any class.
// The paper's fixed cache-size ladder was chosen for the 1985 traces;
// -fit rescales it to the trace's own footprint:
//
//	fscachesim -format blockcsv -sweep tableVI -fit 6 volume.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/fault"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/xfer"
)

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func main() {
	var (
		cache    = flag.String("cache", "4M", "cache size (e.g. 390K, 4M)")
		block    = flag.String("block", "4K", "block size")
		policy   = flag.String("policy", "delayed", "write policy: through, flush, delayed")
		flush    = flag.Duration("flush", 30*time.Second, "flush-back interval (with -policy flush)")
		replace  = flag.String("replace", "lru", "replacement: lru, fifo, clock, random, arc, 2q, slru, lirs, tinylfu")
		paging   = flag.Bool("paging", false, "simulate program page-in as whole-file reads")
		format   = flag.String("format", "bsd", "trace format: bsd, blockcsv, pageref, strace")
		sweep    = flag.String("sweep", "", "run a paper sweep instead: tableVI, tableVII, fig7, replacement, zoo, tiers, flush")
		fit      = flag.Int("fit", 0, "with -sweep tableVI/fig7: N-rung cache-size ladder fitted to the trace's footprint instead of the paper's sizes")
		crashN   = flag.Int("crash-sweep", 0, "sample N crash points; report expected loss per write policy at -cache/-block")
		crashAt  = flag.Duration("crash-at", 0, "report the data a crash at this trace time would lose (single run)")
		lenient  = flag.Bool("lenient", false, "repair damaged traces and simulate what survives instead of failing on partial ingest")
		manifest = flag.String("manifest", "", "write the run manifest (config, stage spans, metrics) to this file")
		progress = flag.Bool("progress", false, "live per-stage progress line on stderr (TTY only)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fscachesim [flags] trace.bin")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	reg.SetEnabled(*manifest != "" || *progress)
	var prog *obs.Progress
	if *progress {
		prog = obs.StartProgress(os.Stderr, reg)
	}
	// finish closes out the run on every success path: stops the
	// progress line and writes the manifest when one was asked for.
	finish := func() {
		prog.Stop()
		if *manifest == "" {
			return
		}
		m := reg.Manifest(obs.RunInfo{
			Command: "fscachesim",
			Config: map[string]string{
				"trace":   flag.Arg(0),
				"cache":   *cache,
				"block":   *block,
				"policy":  *policy,
				"flush":   flush.String(),
				"replace": *replace,
				"paging":  fmt.Sprintf("%t", *paging),
				"format":  *format,
				"sweep":   *sweep,
				"fit":     fmt.Sprintf("%d", *fit),
				"lenient": fmt.Sprintf("%t", *lenient),
			},
		})
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "fscachesim:", err)
			os.Exit(1)
		}
	}

	// Reconstruct the transfer tape once, streaming the trace file event
	// by event (the raw events are never materialized); every
	// configuration below — single run or sweep — replays the same tape.
	tape, err := buildTape(flag.Arg(0), *format, *lenient, reg)
	if err != nil {
		prog.Stop()
		fmt.Fprintln(os.Stderr, "fscachesim:", err)
		os.Exit(1)
	}
	w := os.Stdout

	if *sweep != "" {
		if err := runSweep(w, tape, *sweep, *fit, reg); err != nil {
			prog.Stop()
			fmt.Fprintln(os.Stderr, "fscachesim:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	cfg := cachesim.Config{SimulatePaging: *paging}
	if cfg.BlockSize, err = parseSize(*block); err != nil {
		fmt.Fprintln(os.Stderr, "fscachesim:", err)
		os.Exit(1)
	}
	if cfg.CacheSize, err = parseSize(*cache); err != nil {
		fmt.Fprintln(os.Stderr, "fscachesim:", err)
		os.Exit(1)
	}
	switch strings.ToLower(*policy) {
	case "through", "write-through", "wt":
		cfg.Write = cachesim.WriteThrough
	case "flush", "flush-back", "fb":
		cfg.Write = cachesim.FlushBack
		cfg.FlushInterval = trace.Time((*flush).Milliseconds())
	case "delayed", "delayed-write", "dw":
		cfg.Write = cachesim.DelayedWrite
	default:
		fmt.Fprintf(os.Stderr, "fscachesim: unknown policy %q\n", *policy)
		os.Exit(1)
	}
	if cfg.Replacement, err = cachesim.ParseReplacement(*replace); err != nil {
		fmt.Fprintln(os.Stderr, "fscachesim:", err)
		os.Exit(1)
	}

	if *crashN > 0 {
		if err := runCrashSweep(w, tape, cfg.BlockSize, cfg.CacheSize, *crashN, reg); err != nil {
			prog.Stop()
			fmt.Fprintln(os.Stderr, "fscachesim:", err)
			os.Exit(1)
		}
		finish()
		return
	}
	if *crashAt > 0 {
		if err := runCrashAt(w, tape, cfg, trace.Time((*crashAt).Milliseconds()), reg); err != nil {
			prog.Stop()
			fmt.Fprintln(os.Stderr, "fscachesim:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	r, err := cachesim.SimulateTape(tape, cfg)
	if err != nil {
		prog.Stop()
		fmt.Fprintln(os.Stderr, "fscachesim:", err)
		os.Exit(1)
	}
	cachesim.PublishResults(reg, "sim", r)
	if err := writeSummary(w, cfg, r); err != nil {
		prog.Stop()
		fmt.Fprintln(os.Stderr, "fscachesim:", err)
		os.Exit(1)
	}
	finish()
}

// writeSummary prints the single-run summary.
func writeSummary(w io.Writer, cfg cachesim.Config, r *cachesim.Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "cache %s, blocks %s, %v, %v replacement\n",
		report.Size(cfg.CacheSize), report.Size(cfg.BlockSize), cfg.Write, cfg.Replacement)
	fmt.Fprintf(&b, "logical block accesses: %s (%s writes)\n",
		report.Count(r.LogicalAccesses), report.Pct(r.WriteFraction()))
	fmt.Fprintf(&b, "disk I/Os: %s (%s reads + %s writes), miss ratio %s\n",
		report.Count(r.DiskIOs()), report.Count(r.DiskReads), report.Count(r.DiskWrites),
		report.Pct(r.MissRatio()))
	fmt.Fprintf(&b, "dirty blocks that died in cache: %s (%s of dirtied)\n",
		report.Count(r.DirtyDiscarded), report.Pct(r.NeverWrittenFraction()))
	fmt.Fprintf(&b, "blocks resident > %v: %s\n", r.Config.ResidencyThreshold, report.Pct(r.ResidencyOver))
	_, err := io.WriteString(w, b.String())
	return err
}

// buildTape streams a trace file into a transfer tape, under a
// tape-build span when observation is on. A strict build fails on any
// damage; a lenient one repairs the stream first and reports the
// budget to stderr. Foreign formats import through the adapt package:
// their transfers are faithful for every trace class, so the resulting
// tape feeds any simulation below.
func buildTape(path, format string, lenient bool, reg *obs.Registry) (*xfer.Tape, error) {
	ff, err := adapt.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	if ff != adapt.FormatBSD {
		if lenient {
			return nil, fmt.Errorf("-lenient applies only to -format bsd (foreign adapters fail on damaged lines)")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src, err := adapt.NewSource(ff, f)
		if err != nil {
			return nil, err
		}
		tape, err := xfer.BuildTape(reg.Instrument("tape-build", src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		tape.PublishMetrics(reg, "tape")
		return tape, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	var src trace.Source = r
	var ls *trace.LenientSource
	if lenient {
		ls = trace.NewLenientSource(r)
		src = ls
	}
	src = reg.Instrument("tape-build", src)
	tape, err := xfer.BuildTape(src)
	if err != nil {
		if skip := r.Skipped(); !lenient && !skip.Zero() {
			// The reader skipped damage and the orphaned events it left
			// behind broke the tape build downstream.
			return nil, fmt.Errorf("malformed trace after partial ingest (%v): %v; rerun with -lenient to repair and continue", skip, err)
		}
		return nil, fmt.Errorf("malformed trace: %w", err)
	}
	if skip := r.Skipped(); !lenient && !skip.Zero() {
		return nil, fmt.Errorf("%s: partial ingest (%v); rerun with -lenient to repair and continue", path, skip)
	} else if lenient {
		if trunc := ls.Truncated(); trunc != nil {
			fmt.Fprintf(os.Stderr, "fscachesim: %s: stream truncated at decode error: %v\n", path, trunc)
		}
		if st := ls.Stats(); !st.Zero() || !skip.Zero() {
			fmt.Fprintf(os.Stderr, "fscachesim: %s: degraded ingest: %v; repaired: %v\n", path, skip, st)
		}
	}
	obs.PublishSkip(reg, "skip", r.Skipped())
	if ls != nil {
		obs.PublishRepair(reg, "repair", ls.Stats())
	}
	tape.PublishMetrics(reg, "tape")
	return tape, nil
}

func runSweep(w *os.File, tape *xfer.Tape, name string, fit int, reg *obs.Registry) error {
	// ladder picks the cache sizes a sweep runs at: the paper's fixed
	// ladder by default, or one fitted to the tape's footprint when the
	// trace (typically a foreign import) lives at a different scale.
	ladder := func() []int64 {
		if fit > 0 {
			return cachesim.FitCacheSizes(tape, 4096, fit)
		}
		return cachesim.PaperCacheSizes()
	}
	switch strings.ToLower(name) {
	case "tablevi", "vi":
		sizes := ladder()
		pols := cachesim.PaperPolicies()
		res, err := cachesim.PolicySweepTape(tape, 4096, sizes, pols)
		if err != nil {
			return err
		}
		for _, row := range res {
			cachesim.PublishResults(reg, "sim", row...)
		}
		if err := report.TableVI(sizes, pols, res).Render(w); err != nil {
			return err
		}
		return report.Figure5(sizes, pols, res).Render(w)
	case "tablevii", "vii":
		res, err := cachesim.BlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), cachesim.PaperBlockCacheSizes())
		if err != nil {
			return err
		}
		for _, row := range res.Results {
			cachesim.PublishResults(reg, "sim", row...)
		}
		if err := report.TableVII(res).Render(w); err != nil {
			return err
		}
		return report.Figure6(res).Render(w)
	case "fig7", "paging":
		sizes := ladder()
		res, err := cachesim.PagingSweepTape(tape, 4096, sizes)
		if err != nil {
			return err
		}
		for _, pair := range res {
			cachesim.PublishResults(reg, "sim", pair[0], pair[1])
		}
		return report.Figure7(sizes, res).Render(w)
	case "replacement":
		res, err := cachesim.ReplacementSweepTape(tape, 4096, 2<<20, 1)
		if err != nil {
			return err
		}
		for _, rp := range []cachesim.Replacement{cachesim.LRU, cachesim.Clock, cachesim.FIFO, cachesim.Random} {
			cachesim.PublishResults(reg, "sim", res[rp])
		}
		t := &report.Table{
			Title:  "Ablation A1. Replacement policy at a 2-Mbyte delayed-write cache.",
			Header: []string{"Policy", "Disk I/Os", "Miss Ratio"},
			Note:   "The paper's simulator is LRU-only; this quantifies that choice.",
		}
		for _, rp := range []cachesim.Replacement{cachesim.LRU, cachesim.Clock, cachesim.FIFO, cachesim.Random} {
			r := res[rp]
			t.AddRow(rp.String(), report.Count(r.DiskIOs()), report.Pct(r.MissRatio()))
		}
		return t.Render(w)
	case "zoo":
		sizes := cachesim.PaperCacheSizes()
		res, err := cachesim.ZooSweepTape(tape, 4096, sizes, 1)
		if err != nil {
			return err
		}
		for _, row := range res {
			cachesim.PublishResults(reg, "sim", row...)
		}
		if err := report.ZooTable(sizes, res).Render(w); err != nil {
			return err
		}
		bres, err := cachesim.ZooBlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), 2<<20, 1)
		if err != nil {
			return err
		}
		if err := report.ZooBlockTable(cachesim.PaperBlockSizes(), 2<<20, bres).Render(w); err != nil {
			return err
		}
		pres, err := cachesim.ZooPagingSweepTape(tape, 4096, sizes, 1)
		if err != nil {
			return err
		}
		return report.ZooPagingTable(sizes, pres).Render(w)
	case "tiers":
		res, err := cachesim.HierarchySimulateTapes([]*xfer.Tape{tape}, cachesim.HierarchyConfig{
			BlockSize: 4096,
			Tiers: []cachesim.Tier{
				{Name: "ram", Size: cachesim.UnixCacheSize, Replacement: cachesim.LRU,
					Write: cachesim.WriteThrough},
				{Name: "flash", Size: 4 << 20, Replacement: cachesim.ARC, Seed: 1,
					Write:       cachesim.DelayedWrite,
					ReadLatency: trace.Millisecond, WriteLatency: 2 * trace.Millisecond,
					EnduranceWrites: 100_000},
				{Name: "disk", ReadLatency: 10 * trace.Millisecond,
					WriteLatency: 10 * trace.Millisecond},
			},
		})
		if err != nil {
			return err
		}
		t := &report.Table{
			Title:  "Three-tier hierarchy: 390-kbyte RAM over 4-Mbyte flash (ARC) over disk.",
			Header: []string{"Tier", "Size", "Reads", "Writes", "Hit Ratio", "Busy", "Max Wear"},
			Note: "The paper's diskless-workstation question with a flash tier in the " +
				"middle: each tier's read misses and write-backs become the traffic of " +
				"the tier below. Busy is device service time; Max Wear the heaviest " +
				"per-block write count (flash budget 100,000 writes).",
		}
		for i := range res.Tiers {
			tr := &res.Tiers[i]
			size := report.Size(tr.Size)
			if tr.Size <= 0 {
				size = "unbounded"
			}
			t.AddRow(tr.Name, size, report.Count(tr.Reads), report.Count(tr.Writes),
				report.Pct(tr.HitRatio()), tr.BusyTime.String(), report.Count(tr.MaxBlockWrites))
		}
		if err := t.Render(w); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "end-to-end miss ratio %s; network blocks %s; disk I/Os %s\n\n",
			report.Pct(res.EndToEndMissRatio()), report.Count(res.NetworkBlocks()),
			report.Count(res.DiskReads()+res.DiskWrites()))
		return err
	case "stack":
		r, err := cachesim.StackDistancesTape(tape, 4096)
		if err != nil {
			return err
		}
		if reg.Enabled() {
			reg.Counter("stack.distinct_blocks").Set(r.DistinctBlocks())
		}
		t := &report.Table{
			Title:  "One-pass LRU stack-distance analysis (4-kbyte blocks).",
			Header: []string{"Cache Size", "Reference Miss Ratio"},
			Note: "Mattson's algorithm: the pure LRU locality profile of the block " +
				"reference string, computed for all cache sizes in one pass. Unlike " +
				"Table VI this counts reference misses, not disk I/Os: it has no " +
				"write-backs, and cold whole-block overwrites count as misses here " +
				"but cost no disk read in the full simulator.",
		}
		for _, cs := range cachesim.PaperCacheSizes() {
			t.AddRow(report.Size(cs), report.Pct(r.MissRatio(cs)))
		}
		t.AddRow("distinct blocks", report.Count(r.DistinctBlocks()))
		return t.Render(w)
	case "flush":
		intervals := []trace.Time{
			1 * trace.Second, 5 * trace.Second, 30 * trace.Second,
			trace.Minute, 5 * trace.Minute, 15 * trace.Minute, trace.Hour,
		}
		res, err := cachesim.FlushIntervalSweepTape(tape, 4096, 2<<20, intervals)
		if err != nil {
			return err
		}
		cachesim.PublishResults(reg, "sim", res...)
		t := &report.Table{
			Title:  "Ablation A2. Flush-back interval sweep at a 2-Mbyte cache.",
			Header: []string{"Interval", "Disk Writes", "Miss Ratio"},
			Note: "Write-through is the interval->0 limit and delayed-write the " +
				"interval->infinity limit; the paper evaluates only 30 s and 5 min.",
		}
		for i, iv := range intervals {
			t.AddRow(iv.String(), report.Count(res[i].DiskWrites), report.Pct(res[i].MissRatio()))
		}
		return t.Render(w)
	}
	return fmt.Errorf("unknown sweep %q", name)
}

// runCrashSweep samples n crash points across the trace and reports, for
// each of the paper's write policies, what a crash would lose — one tape
// replay per policy, all points sampled in the same pass.
func runCrashSweep(w *os.File, tape *xfer.Tape, blockSize, cacheSize int64, n int, reg *obs.Registry) error {
	points := fault.Points(tape, n)
	pols := cachesim.PaperPolicies()
	reps, err := fault.PolicySweepTape(tape, blockSize, cacheSize, pols, points)
	if err != nil {
		return err
	}
	fault.PublishReports(reg, "crash", reps)
	return report.Reliability(pols, reps, cacheSize, blockSize, len(points)).Render(w)
}

// runCrashAt reports the loss of a single crash instant under one
// configuration.
func runCrashAt(w *os.File, tape *xfer.Tape, cfg cachesim.Config, at trace.Time, reg *obs.Registry) error {
	rep, err := fault.CrashReplayTape(tape, cfg, []trace.Time{at})
	if err != nil {
		return err
	}
	fault.PublishReports(reg, "crash", []*fault.Report{rep})
	p := rep.Points[0]
	var b strings.Builder
	fmt.Fprintf(&b, "crash at %v under %v (cache %s, blocks %s):\n",
		p.Time, cfg.Write, report.Size(cfg.CacheSize), report.Size(cfg.BlockSize))
	fmt.Fprintf(&b, "lost: %s in %s dirty blocks\n", report.Size(p.Bytes), report.Count(p.Blocks))
	if p.Blocks > 0 {
		fmt.Fprintf(&b, "oldest lost data: %v unflushed; mean %v\n", p.MaxAge, p.MeanAge)
	}
	_, err = io.WriteString(w, b.String())
	return err
}
