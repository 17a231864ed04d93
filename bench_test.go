// Package bsdtrace's benchmark suite regenerates every table and figure in
// the paper's evaluation, one benchmark per artifact, as DESIGN.md's
// experiment index specifies. Each benchmark measures the cost of
// regenerating its table or figure from a fixed pre-generated trace (trace
// generation itself is benchmarked separately), and reports a few headline
// numbers as custom metrics so `go test -bench` output doubles as a
// compact reproduction record.
//
// Run everything:
//
//	go test -bench=. -benchmem
package bsdtrace

import (
	"io"
	"sync"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/ffs"
	"bsdtrace/internal/namei"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// benchDuration keeps each benchmark iteration around a second on a
// laptop while leaving the distributions well-populated; cmd/fsreport
// defaults to 8-hour traces for the recorded experiments.
const benchDuration = 2 * trace.Hour

var (
	benchOnce   sync.Once
	benchTraces report.Traces
	benchA5     []trace.Event
)

// benchSetup generates the three machine traces once per test binary.
// Every benchmark that uses it exercises the simulators, so allocation
// counts are reported alongside time without needing -benchmem.
func benchSetup(b *testing.B) {
	b.Helper()
	b.ReportAllocs()
	benchOnce.Do(func() {
		for _, name := range []string{"A5", "E3", "C4"} {
			res, err := workload.Generate(workload.Config{
				Profile:  name,
				Seed:     1,
				Duration: benchDuration,
			})
			if err != nil {
				panic(err)
			}
			if name == "A5" {
				benchA5 = res.Events
			}
			benchTraces.Names = append(benchTraces.Names, name)
			benchTraces.Analyses = append(benchTraces.Analyses, analyzer.Analyze(res.Events, analyzer.Options{}))
		}
	})
	b.ResetTimer()
}

// newTape reconstructs a trace's transfer tape. Benchmarks call it inside
// the timed loop, so each iteration regenerates its artifact from the
// events.
func newTape(b *testing.B, events []trace.Event) *xfer.Tape {
	b.Helper()
	tape, err := xfer.NewTape(events)
	if err != nil {
		b.Fatal(err)
	}
	return tape
}

// BenchmarkGenerate measures trace generation itself (events/sec of
// synthetic machine time).
func BenchmarkGenerate(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := workload.Generate(workload.Config{Profile: "A5", Seed: int64(i + 1), Duration: trace.Hour})
		if err != nil {
			b.Fatal(err)
		}
		events = int64(len(res.Events))
	}
	b.ReportMetric(float64(events), "events/trace-hour")
}

// BenchmarkAnalyze measures the full Section-5 analysis pass.
func BenchmarkAnalyze(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		analyzer.Analyze(benchA5, analyzer.Options{})
	}
	b.ReportMetric(float64(len(benchA5))/float64(1), "events")
}

// BenchmarkTableI regenerates the paper's selected-results summary
// (Table I), which depends on the Table VI and VII sweeps.
func BenchmarkTableI(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		tape := newTape(b, benchA5)
		policy, err := cachesim.PolicySweepTape(tape, 4096,
			[]int64{cachesim.UnixCacheSize, 1 << 20, 2 << 20, 4 << 20}, cachesim.PaperPolicies())
		if err != nil {
			b.Fatal(err)
		}
		block, err := cachesim.BlockSizeSweepTape(tape,
			[]int64{4096, 8192, 16384}, []int64{400 << 10, 2 << 20, 4 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.TableI(benchTraces.Analyses[0], policy, block).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the overall trace statistics.
func BenchmarkTableIII(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := report.TableIII(benchTraces).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*benchTraces.Analyses[0].Overall.Counts.Fraction(trace.KindSeek), "seek-%")
}

// BenchmarkTableIV regenerates the activity table and reports the paper's
// headline per-user throughput.
func BenchmarkTableIV(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := report.TableIV(benchTraces).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchTraces.Analyses[0].Activity.Long.PerUserThroughput.Mean(), "B/s/user-10min")
}

// BenchmarkTableV regenerates the sequentiality table.
func BenchmarkTableV(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := report.TableV(benchTraces).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*benchTraces.Analyses[0].Sequentiality.WholeFileFraction(analyzer.ClassReadOnly), "wholefile-read-%")
}

// BenchmarkEventIntervals regenerates the §3.1 inter-event interval
// measurement.
func BenchmarkEventIntervals(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := report.EventIntervalTable(benchTraces).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*benchTraces.Analyses[0].EventIntervals.FractionAtOrBelow(0.5), "gaps<=0.5s-%")
}

// BenchmarkFigure1 regenerates the sequential-run-length CDFs.
func BenchmarkFigure1(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, c := range report.Figure1(benchTraces) {
			if err := c.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(100*benchTraces.Analyses[0].RunLengthsByRuns.FractionAtOrBelow(4096), "runs<=4KB-%")
}

// BenchmarkFigure2 regenerates the file-size CDFs.
func BenchmarkFigure2(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, c := range report.Figure2(benchTraces) {
			if err := c.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(100*benchTraces.Analyses[0].FileSizesByFiles.FractionAtOrBelow(10240), "files<=10KB-%")
}

// BenchmarkFigure3 regenerates the open-duration CDF.
func BenchmarkFigure3(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if err := report.Figure3(benchTraces).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*benchTraces.Analyses[0].OpenTimes.FractionAtOrBelow(0.5), "opens<=0.5s-%")
}

// BenchmarkFigure4 regenerates the lifetime CDFs.
func BenchmarkFigure4(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, c := range report.Figure4(benchTraces) {
			if err := c.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	lf := benchTraces.Analyses[0].Lifetimes.ByFiles
	b.ReportMetric(100*(lf.FractionAtOrBelow(182)-lf.FractionAtOrBelow(178)), "180s-spike-%")
}

// BenchmarkTableVI regenerates the cache-size x write-policy sweep
// (Table VI / Figure 5).
func BenchmarkTableVI(b *testing.B) {
	benchSetup(b)
	var dw4 float64
	for i := 0; i < b.N; i++ {
		sizes := cachesim.PaperCacheSizes()
		pols := cachesim.PaperPolicies()
		res, err := cachesim.PolicySweepTape(newTape(b, benchA5), 4096, sizes, pols)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.TableVI(sizes, pols, res).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		dw4 = res[3][3].MissRatio()
	}
	b.ReportMetric(100*dw4, "4MB-DW-miss-%")
}

// BenchmarkFigure5 regenerates the chart form of Table VI.
func BenchmarkFigure5(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		sizes := cachesim.PaperCacheSizes()
		pols := cachesim.PaperPolicies()
		res, err := cachesim.PolicySweepTape(newTape(b, benchA5), 4096, sizes, pols)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Figure5(sizes, pols, res).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVII regenerates the block-size x cache-size sweep
// (Table VII / Figure 6).
func BenchmarkTableVII(b *testing.B) {
	benchSetup(b)
	var best16 int64
	for i := 0; i < b.N; i++ {
		res, err := cachesim.BlockSizeSweepTape(newTape(b, benchA5), cachesim.PaperBlockSizes(), cachesim.PaperBlockCacheSizes())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.TableVII(res).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		best16 = res.Results[4][2].DiskIOs() // 16 KB blocks, 4 MB cache
	}
	b.ReportMetric(float64(best16), "IOs-16KB-4MB")
}

// BenchmarkFigure6 regenerates the chart form of Table VII.
func BenchmarkFigure6(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := cachesim.BlockSizeSweepTape(newTape(b, benchA5), cachesim.PaperBlockSizes(), cachesim.PaperBlockCacheSizes())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Figure6(res).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the page-in experiment.
func BenchmarkFigure7(b *testing.B) {
	benchSetup(b)
	var with, without float64
	for i := 0; i < b.N; i++ {
		sizes := cachesim.PaperCacheSizes()
		res, err := cachesim.PagingSweepTape(newTape(b, benchA5), 4096, sizes)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Figure7(sizes, res).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		without, with = res[3][0].MissRatio(), res[3][1].MissRatio()
	}
	b.ReportMetric(100*without, "4MB-nopage-miss-%")
	b.ReportMetric(100*with, "4MB-paging-miss-%")
}

// BenchmarkResidency regenerates the §6.2 residency measurement.
func BenchmarkResidency(b *testing.B) {
	benchSetup(b)
	var over float64
	for i := 0; i < b.N; i++ {
		r, err := cachesim.SimulateTape(newTape(b, benchA5), cachesim.Config{
			BlockSize: 4096, CacheSize: 4 << 20, Write: cachesim.DelayedWrite,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.ResidencyTable(r).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		over = r.ResidencyOver
	}
	b.ReportMetric(100*over, "resident>20min-%")
}

// BenchmarkAblationReplacement compares replacement policies (A1).
func BenchmarkAblationReplacement(b *testing.B) {
	benchSetup(b)
	var lru, fifo float64
	for i := 0; i < b.N; i++ {
		res, err := cachesim.ReplacementSweepTape(newTape(b, benchA5), 4096, 2<<20, 1)
		if err != nil {
			b.Fatal(err)
		}
		lru = res[cachesim.LRU].MissRatio()
		fifo = res[cachesim.FIFO].MissRatio()
	}
	b.ReportMetric(100*lru, "LRU-miss-%")
	b.ReportMetric(100*fifo, "FIFO-miss-%")
}

// BenchmarkAblationFlushInterval sweeps flush-back intervals (A2).
func BenchmarkAblationFlushInterval(b *testing.B) {
	benchSetup(b)
	intervals := []trace.Time{trace.Second, 30 * trace.Second, 5 * trace.Minute, trace.Hour}
	var first, last float64
	for i := 0; i < b.N; i++ {
		res, err := cachesim.FlushIntervalSweepTape(newTape(b, benchA5), 4096, 2<<20, intervals)
		if err != nil {
			b.Fatal(err)
		}
		first, last = res[0].MissRatio(), res[len(res)-1].MissRatio()
	}
	b.ReportMetric(100*first, "1s-flush-miss-%")
	b.ReportMetric(100*last, "1h-flush-miss-%")
}

// BenchmarkAblationBilling compares billing transfers at run start versus
// run end (A3) under a flush-back policy, where wall-clock time matters.
func BenchmarkAblationBilling(b *testing.B) {
	benchSetup(b)
	var end, start float64
	for i := 0; i < b.N; i++ {
		tape := newTape(b, benchA5)
		for _, billStart := range []bool{false, true} {
			r, err := cachesim.SimulateTape(tape, cachesim.Config{
				BlockSize: 4096, CacheSize: 2 << 20,
				Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second,
				BillAtStart: billStart,
			})
			if err != nil {
				b.Fatal(err)
			}
			if billStart {
				start = r.MissRatio()
			} else {
				end = r.MissRatio()
			}
		}
	}
	b.ReportMetric(100*end, "bill-at-end-miss-%")
	b.ReportMetric(100*start, "bill-at-start-miss-%")
}

// BenchmarkAblationPurge isolates the death-before-ejection effect (A4).
func BenchmarkAblationPurge(b *testing.B) {
	benchSetup(b)
	var purge, noPurge float64
	for i := 0; i < b.N; i++ {
		tape := newTape(b, benchA5)
		for _, np := range []bool{false, true} {
			r, err := cachesim.SimulateTape(tape, cachesim.Config{
				BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite,
				NoPurge: np,
			})
			if err != nil {
				b.Fatal(err)
			}
			if np {
				noPurge = r.MissRatio()
			} else {
				purge = r.MissRatio()
			}
		}
	}
	b.ReportMetric(100*purge, "purge-miss-%")
	b.ReportMetric(100*noPurge, "nopurge-miss-%")
}

// BenchmarkCodec measures binary trace encode+decode throughput.
func BenchmarkCodec(b *testing.B) {
	benchSetup(b)
	var bytesPerEvent float64
	for i := 0; i < b.N; i++ {
		cw := &countWriter{}
		w := trace.NewWriter(cw)
		for _, e := range benchA5 {
			if err := w.Write(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		bytesPerEvent = float64(cw.n) / float64(len(benchA5))
	}
	b.ReportMetric(bytesPerEvent, "bytes/event")
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkMetadata regenerates the §3.2/conclusion metadata experiment:
// the A5 workload with the name, i-node, and directory caches simulated.
func BenchmarkMetadata(b *testing.B) {
	benchSetup(b)
	var nameHit, share float64
	for i := 0; i < b.N; i++ {
		sim := namei.New(namei.Config{})
		if _, err := workload.Generate(workload.Config{
			Profile: "A5", Seed: 1, Duration: benchDuration, Meta: sim,
		}); err != nil {
			b.Fatal(err)
		}
		data, err := cachesim.SimulateTape(newTape(b, benchA5), cachesim.Config{
			BlockSize: 4096, CacheSize: cachesim.UnixCacheSize,
			Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		nameHit = sim.Stats.NameHitRatio()
		meta := sim.Stats.DiskIOs()
		share = float64(meta) / float64(meta+data.DiskIOs())
	}
	b.ReportMetric(100*nameHit, "name-hit-%")
	b.ReportMetric(100*share, "meta-share-%")
}

// BenchmarkAblationFragmentation regenerates the §6.3 disk-space-waste
// experiment over the FFS allocator.
func BenchmarkAblationFragmentation(b *testing.B) {
	benchSetup(b)
	var noFrag, withFrag float64
	for i := 0; i < b.N; i++ {
		rows, err := ffs.WasteSweep(benchA5, []int64{4096, 16384})
		if err != nil {
			b.Fatal(err)
		}
		noFrag = rows[1].NoFragWaste
		withFrag = rows[1].FragWaste
	}
	b.ReportMetric(100*noFrag, "16KB-waste-noFrag-%")
	b.ReportMetric(100*withFrag, "16KB-waste-FFS-%")
}

// BenchmarkStackDistance measures the one-pass Mattson analysis that
// produces the whole LRU miss-ratio curve at once.
func BenchmarkStackDistance(b *testing.B) {
	benchSetup(b)
	var at4MB float64
	for i := 0; i < b.N; i++ {
		r, err := cachesim.StackDistancesTape(newTape(b, benchA5), 4096)
		if err != nil {
			b.Fatal(err)
		}
		at4MB = r.MissRatio(4 << 20)
	}
	b.ReportMetric(100*at4MB, "4MB-ref-miss-%")
}

// BenchmarkServerConsolidation runs the shared-file-server experiment:
// the three machine traces merged onto one server cache versus private
// per-machine caches of the same total memory.
func BenchmarkServerConsolidation(b *testing.B) {
	benchSetup(b)
	// Regenerate E3 and C4 event slices (benchSetup keeps only analyses
	// plus A5 events); cached across iterations.
	var machines [][]trace.Event
	for _, name := range []string{"A5", "E3", "C4"} {
		res, err := workload.Generate(workload.Config{Profile: name, Seed: 1, Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
		machines = append(machines, res.Events)
	}
	b.ResetTimer()
	var split, shared float64
	for i := 0; i < b.N; i++ {
		sources := make([]trace.Source, len(machines))
		for j, events := range machines {
			sources[j] = trace.NewSliceSource(events)
		}
		merged, err := trace.ReadSource(trace.NewMergeSource(sources...))
		if err != nil {
			b.Fatal(err)
		}
		var splitIOs, splitAcc int64
		for _, events := range machines {
			r, err := cachesim.SimulateTape(newTape(b, events), cachesim.Config{
				BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite,
			})
			if err != nil {
				b.Fatal(err)
			}
			splitIOs += r.DiskIOs()
			splitAcc += r.LogicalAccesses
		}
		split = float64(splitIOs) / float64(splitAcc)
		r, err := cachesim.SimulateTape(newTape(b, merged), cachesim.Config{
			BlockSize: 4096, CacheSize: 6 << 20, Write: cachesim.DelayedWrite,
		})
		if err != nil {
			b.Fatal(err)
		}
		shared = r.MissRatio()
	}
	b.ReportMetric(100*split, "split-3x2MB-miss-%")
	b.ReportMetric(100*shared, "shared-6MB-miss-%")
}

// BenchmarkDiskless runs the client/server/disk hierarchy (the
// diskless-workstation architecture from the paper's introduction).
func BenchmarkDiskless(b *testing.B) {
	benchSetup(b)
	var machines [][]trace.Event
	for _, name := range []string{"A5", "E3", "C4"} {
		res, err := workload.Generate(workload.Config{Profile: name, Seed: 1, Duration: benchDuration})
		if err != nil {
			b.Fatal(err)
		}
		machines = append(machines, res.Events)
	}
	b.ResetTimer()
	var hit, endToEnd float64
	for i := 0; i < b.N; i++ {
		tapes := make([]*xfer.Tape, len(machines))
		for m, events := range machines {
			tapes[m] = newTape(b, events)
		}
		r, err := cachesim.HierarchySimulateTapes(tapes, cachesim.HierarchyConfig{
			BlockSize: 4096,
			Tiers: []cachesim.Tier{
				{Name: "client", Size: 512 << 10, Write: cachesim.WriteThrough},
				{Name: "server", Size: 8 << 20, Write: cachesim.DelayedWrite},
				{Name: "disk"},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		hit = 1 - float64(r.NetworkBlocks())/float64(r.ClientAccesses)
		endToEnd = r.EndToEndMissRatio()
	}
	b.ReportMetric(100*hit, "client-hit-%")
	b.ReportMetric(100*endToEnd, "end-to-end-miss-%")
}

// benchPaperConfigs returns the combined Table VI + Table VII + Figure 7
// configuration set: the 60 cache configurations the paper's Section 6
// evaluates.
func benchPaperConfigs() []cachesim.Config {
	var cfgs []cachesim.Config
	for _, cs := range cachesim.PaperCacheSizes() {
		for _, p := range cachesim.PaperPolicies() {
			cfgs = append(cfgs, cachesim.Config{
				BlockSize: 4096, CacheSize: cs, Write: p.Write, FlushInterval: p.Interval,
			})
		}
	}
	for _, bs := range cachesim.PaperBlockSizes() {
		for _, cs := range cachesim.PaperBlockCacheSizes() {
			cfgs = append(cfgs, cachesim.Config{BlockSize: bs, CacheSize: cs, Write: cachesim.DelayedWrite})
		}
	}
	for _, cs := range cachesim.PaperCacheSizes() {
		for j := 0; j < 2; j++ {
			cfgs = append(cfgs, cachesim.Config{
				BlockSize: 4096, CacheSize: cs, Write: cachesim.DelayedWrite, SimulatePaging: j == 1,
			})
		}
	}
	return cfgs
}

// BenchmarkNaiveSweep runs the combined Section-6 sweep the
// pre-tape way: every configuration re-reconstructs the transfer stream
// from the raw events (a private tape per SimulateTape call). The
// configurations still run on parallel workers, so the comparison with
// BenchmarkTapeReuse isolates the cost of re-reconstruction, not of
// serial execution.
func BenchmarkNaiveSweep(b *testing.B) {
	benchSetup(b)
	cfgs := benchPaperConfigs()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					tape, err := xfer.NewTape(benchA5)
					if err == nil {
						_, err = cachesim.SimulateTape(tape, cfgs[j])
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		for j := range cfgs {
			next <- j
		}
		close(next)
		wg.Wait()
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkTapeReuse runs the same combined sweep through the transfer
// tape: one reconstruction of the event stream, replayed into all 60
// configurations by MultiSimulate. The tape build is inside the timed
// loop, so the speedup over BenchmarkNaiveSweep is the end-to-end one.
func BenchmarkTapeReuse(b *testing.B) {
	benchSetup(b)
	cfgs := benchPaperConfigs()
	for i := 0; i < b.N; i++ {
		tape, err := xfer.NewTape(benchA5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cachesim.MultiSimulate(tape, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkWorkingSet computes Denning's W(T) curve over the A5 trace.
func BenchmarkWorkingSet(b *testing.B) {
	benchSetup(b)
	var tenMin float64
	for i := 0; i < b.N; i++ {
		ws, err := cachesim.WorkingSetTape(newTape(b, benchA5), 4096, []trace.Time{
			10 * trace.Second, trace.Minute, 10 * trace.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		tenMin = ws[2].MeanBytes / (1 << 20)
	}
	b.ReportMetric(tenMin, "10min-WS-MB")
}
