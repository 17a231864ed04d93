package report

import (
	"fmt"
	"io"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

// This file maps analysis and simulation results onto the paper's exact
// tables and figures. Each builder returns a Table or Chart ready to
// render; cmd/fsreport strings them together, and EXPERIMENTS.md records
// the outputs next to the paper's numbers.

// Traces pairs trace names with their analyses, in display order.
type Traces struct {
	Names    []string
	Analyses []*analyzer.Analysis
}

// TableI reproduces the paper's "Selected results" summary from one
// trace's analysis plus the Table VI and VII sweeps.
func TableI(a *analyzer.Analysis, policy [][]*cachesim.Result, block *cachesim.BlockSizeSweepResult) *Table {
	t := &Table{
		Title: "Table I. Selected results.",
		Note:  "Reproduction of the paper's headline summary; see the individual tables and figures for detail.",
	}
	t.AddRow(fmt.Sprintf("Bytes/sec per active user (10-min intervals): %.0f (paper: ~300-570)",
		a.Activity.Long.PerUserThroughput.Mean()))
	wfAcc := float64(a.Sequentiality.WholeFile[analyzer.ClassReadOnly]+
		a.Sequentiality.WholeFile[analyzer.ClassWriteOnly]+
		a.Sequentiality.WholeFile[analyzer.ClassReadWrite]) /
		float64(max(a.Sequentiality.Accesses[0]+a.Sequentiality.Accesses[1]+a.Sequentiality.Accesses[2], 1))
	t.AddRow(fmt.Sprintf("Whole-file transfers: %s of accesses (paper: ~70%%)", Pct(wfAcc)))
	if a.Sequentiality.BytesTotal > 0 {
		t.AddRow(fmt.Sprintf("Bytes moved in whole-file transfers: %s (paper: ~50%%)",
			Pct(float64(a.Sequentiality.BytesWholeFile)/float64(a.Sequentiality.BytesTotal))))
	}
	t.AddRow(fmt.Sprintf("Files open < 0.5 sec: %s (paper: 75%%); < 10 sec: %s (paper: 90%%)",
		Pct(a.OpenTimes.FractionAtOrBelow(0.5)), Pct(a.OpenTimes.FractionAtOrBelow(10))))
	t.AddRow(fmt.Sprintf("New bytes dead within 30 sec: %s (paper: 20-30%%); within 5 min: %s (paper: ~50%%)",
		Pct(a.Lifetimes.ByBytes.FractionAtOrBelow(30)), Pct(a.Lifetimes.ByBytes.FractionAtOrBelow(300))))
	if len(policy) >= 4 && len(policy[3]) >= 4 {
		wt := policy[3][0].MissRatio()
		dw := policy[3][3].MissRatio()
		t.AddRow(fmt.Sprintf("4-Mbyte cache eliminates %s-%s of disk accesses by write policy (paper: 65-90%%)",
			Pct(1-wt), Pct(1-dw)))
	}
	if block != nil {
		t.AddRow(fmt.Sprintf("Optimal block size: %s at 400-kbyte cache (paper: 8 kbytes), %s at 4-Mbyte cache (paper: 16 kbytes)",
			Size(bestBlock(block, 0)), Size(bestBlock(block, 2))))
	}
	return t
}

// bestBlock returns the block size minimizing disk I/Os at cache column j.
func bestBlock(b *cachesim.BlockSizeSweepResult, j int) int64 {
	best, bestIOs := int64(0), int64(-1)
	for i := range b.BlockSizes {
		ios := b.Results[i][j].DiskIOs()
		if bestIOs < 0 || ios < bestIOs {
			best, bestIOs = b.BlockSizes[i], ios
		}
	}
	return best
}

// TableIII reproduces the overall per-trace statistics.
func TableIII(tr Traces) *Table {
	t := &Table{
		Title:  "Table III. Overall statistics for the traces.",
		Header: append([]string{"Trace"}, tr.Names...),
		Note:   "Percentages are fractions of all events in that trace, as in the paper.",
	}
	row := func(label string, f func(a *analyzer.Analysis) string) {
		cells := []string{label}
		for _, a := range tr.Analyses {
			cells = append(cells, f(a))
		}
		t.AddRow(cells...)
	}
	row("Duration (hours)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%.1f", a.Overall.Duration.Seconds()/3600)
	})
	row("Number of trace records", func(a *analyzer.Analysis) string {
		return Count(a.Overall.Counts.Total)
	})
	row("Size of trace file (Mbytes)", func(a *analyzer.Analysis) string {
		return MB(a.Overall.EncodedSize)
	})
	row("Total data transferred (Mbytes)", func(a *analyzer.Analysis) string {
		return MB(a.Overall.BytesTransferred)
	})
	for k := trace.KindCreate; k <= trace.KindExec; k++ {
		k := k
		row(fmt.Sprintf("%s events", k), func(a *analyzer.Analysis) string {
			return fmt.Sprintf("%s (%s)", Count(a.Overall.Counts.ByKind[k]), Pct(a.Overall.Counts.Fraction(k)))
		})
	}
	return t
}

// TableIV reproduces the system-activity measurements.
func TableIV(tr Traces) *Table {
	t := &Table{
		Title:  "Table IV. Some measurements of system activity.",
		Header: append([]string{""}, tr.Names...),
		Note: "The numbers in parentheses are standard deviations. A user is active in " +
			"an interval if there are any trace events for that user in the interval.",
	}
	row := func(label string, f func(a *analyzer.Analysis) string) {
		cells := []string{label}
		for _, a := range tr.Analyses {
			cells = append(cells, f(a))
		}
		t.AddRow(cells...)
	}
	row("Average throughput (bytes/sec over life of trace)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%.0f", a.Activity.AvgThroughput)
	})
	row("Total number of different users", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%d", a.Activity.TotalUsers)
	})
	row("Greatest number of active users in a 10-minute interval", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%d", a.Activity.Long.MaxActiveUsers)
	})
	row("Average number of active users (10-minute intervals)", func(a *analyzer.Analysis) string {
		return a.Activity.Long.ActiveUsers.String()
	})
	row("Average throughput per active user (bytes/sec, 10-minute intervals)", func(a *analyzer.Analysis) string {
		return a.Activity.Long.PerUserThroughput.String()
	})
	row("Average number of active users (10-second intervals)", func(a *analyzer.Analysis) string {
		return a.Activity.Short.ActiveUsers.String()
	})
	row("Average throughput per active user (bytes/sec, 10-second intervals)", func(a *analyzer.Analysis) string {
		return a.Activity.Short.PerUserThroughput.String()
	})
	return t
}

// TableV reproduces the sequentiality measurements.
func TableV(tr Traces) *Table {
	t := &Table{
		Title:  "Table V. Data tends to be transferred sequentially.",
		Header: append([]string{""}, tr.Names...),
		Note: "Whole-file transfers read or wrote the file sequentially from beginning " +
			"to end. Sequential accesses include whole-file transfers plus those with a " +
			"single initial reposition. Only read-write accesses show significant " +
			"non-sequential use.",
	}
	row := func(label string, f func(a *analyzer.Analysis) string) {
		cells := []string{label}
		for _, a := range tr.Analyses {
			cells = append(cells, f(a))
		}
		t.AddRow(cells...)
	}
	row("Whole-file read transfers (% of read-only accesses)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sequentiality.WholeFile[analyzer.ClassReadOnly]),
			Pct(a.Sequentiality.WholeFileFraction(analyzer.ClassReadOnly)))
	})
	row("Whole-file write transfers (% of write-only accesses)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sequentiality.WholeFile[analyzer.ClassWriteOnly]),
			Pct(a.Sequentiality.WholeFileFraction(analyzer.ClassWriteOnly)))
	})
	row("Data transferred in whole-file transfers (Mbytes)", func(a *analyzer.Analysis) string {
		frac := 0.0
		if a.Sequentiality.BytesTotal > 0 {
			frac = float64(a.Sequentiality.BytesWholeFile) / float64(a.Sequentiality.BytesTotal)
		}
		return fmt.Sprintf("%s (%s)", MB(a.Sequentiality.BytesWholeFile), Pct(frac))
	})
	row("Sequential read-only accesses (%)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sequentiality.Sequential[analyzer.ClassReadOnly]),
			Pct(a.Sequentiality.SequentialFraction(analyzer.ClassReadOnly)))
	})
	row("Sequential write-only accesses (%)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sequentiality.Sequential[analyzer.ClassWriteOnly]),
			Pct(a.Sequentiality.SequentialFraction(analyzer.ClassWriteOnly)))
	})
	row("Sequential read-write accesses (%)", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sequentiality.Sequential[analyzer.ClassReadWrite]),
			Pct(a.Sequentiality.SequentialFraction(analyzer.ClassReadWrite)))
	})
	row("Data transferred sequentially (Mbytes)", func(a *analyzer.Analysis) string {
		frac := 0.0
		if a.Sequentiality.BytesTotal > 0 {
			frac = float64(a.Sequentiality.BytesSequential) / float64(a.Sequentiality.BytesTotal)
		}
		return fmt.Sprintf("%s (%s)", MB(a.Sequentiality.BytesSequential), Pct(frac))
	})
	return t
}

func cdfToXY(c stats.CDF, xScale float64) []XY {
	out := make([]XY, 0, len(c))
	for _, p := range c {
		out = append(out, XY{X: p.X * xScale, Y: p.Fraction})
	}
	return out
}

// Figure1 reproduces the sequential-run-length distributions: (a) weighted
// by runs, (b) weighted by bytes. X is kilobytes as in the paper.
func Figure1(tr Traces) []*Chart {
	a := &Chart{
		Title:  "Figure 1(a). Cumulative distribution of sequential run lengths, weighted by runs.",
		XLabel: "kilobytes transferred", YLabel: "percent of runs", LogX: true, YMax: 100,
	}
	b := &Chart{
		Title:  "Figure 1(b). Same, weighted by bytes transferred.",
		XLabel: "kilobytes transferred", YLabel: "percent of bytes", LogX: true, YMax: 100,
	}
	for i, an := range tr.Analyses {
		a.Series = append(a.Series, CDFSeries(tr.Names[i], cdfToXY(an.RunLengthsByRuns, 1.0/1024), 0))
		b.Series = append(b.Series, CDFSeries(tr.Names[i], cdfToXY(an.RunLengthsByBytes, 1.0/1024), 0))
	}
	return []*Chart{a, b}
}

// Figure2 reproduces the dynamic file-size distributions at close.
func Figure2(tr Traces) []*Chart {
	a := &Chart{
		Title:  "Figure 2(a). File size at close, weighted by number of accesses.",
		XLabel: "file size (kilobytes)", YLabel: "percent of files", LogX: true, YMax: 100,
	}
	b := &Chart{
		Title:  "Figure 2(b). File size at close, weighted by bytes transferred.",
		XLabel: "file size (kilobytes)", YLabel: "percent of bytes", LogX: true, YMax: 100,
	}
	for i, an := range tr.Analyses {
		a.Series = append(a.Series, CDFSeries(tr.Names[i], cdfToXY(an.FileSizesByFiles, 1.0/1024), 0))
		b.Series = append(b.Series, CDFSeries(tr.Names[i], cdfToXY(an.FileSizesByBytes, 1.0/1024), 0))
	}
	return []*Chart{a, b}
}

// Figure3 reproduces the open-duration distribution.
func Figure3(tr Traces) *Chart {
	c := &Chart{
		Title:  "Figure 3. Distribution of times that files were open.",
		XLabel: "open time (seconds)", YLabel: "percent of files", LogX: true, YMax: 100,
	}
	for i, an := range tr.Analyses {
		c.Series = append(c.Series, CDFSeries(tr.Names[i], cdfToXY(an.OpenTimes, 1), 0))
	}
	return c
}

// Figure4 reproduces the file-lifetime distributions; the x-range is
// capped at 500 seconds like the paper's, which also hides the censored
// survivors bucket.
func Figure4(tr Traces) []*Chart {
	a := &Chart{
		Title:  "Figure 4(a). Lifetime of new files, weighted by files.",
		XLabel: "lifetime (seconds)", YLabel: "percent of files", YMax: 100,
	}
	b := &Chart{
		Title:  "Figure 4(b). Lifetime of new files, weighted by bytes created.",
		XLabel: "lifetime (seconds)", YLabel: "percent of bytes", YMax: 100,
	}
	for i, an := range tr.Analyses {
		a.Series = append(a.Series, CDFSeries(tr.Names[i], cdfToXY(an.Lifetimes.ByFiles, 1), 500))
		b.Series = append(b.Series, CDFSeries(tr.Names[i], cdfToXY(an.Lifetimes.ByBytes, 1), 500))
	}
	return []*Chart{a, b}
}

// EventIntervalTable reports the §3.1 measurement bounding transfer-time
// accuracy.
func EventIntervalTable(tr Traces) *Table {
	t := &Table{
		Title:  "Inter-event intervals for open files (paper §3.1).",
		Header: append([]string{"Interval <="}, tr.Names...),
		Note: "Intervals between successive trace events for the same open file bound " +
			"when transfers actually occurred. The paper measured 75% under 0.5 s, 90% " +
			"under 10 s, and 99% under 30 s.",
	}
	for _, bound := range []float64{0.5, 10, 30} {
		cells := []string{fmt.Sprintf("%g sec", bound)}
		for _, a := range tr.Analyses {
			cells = append(cells, Pct(a.EventIntervals.FractionAtOrBelow(bound)))
		}
		t.AddRow(cells...)
	}
	return t
}

// Section5 renders the Section-5 battery in report order: Tables III-V,
// the inter-event interval and sharing tables, then Figures 1-4, each
// item only when want accepts its name (a nil want accepts all). Like
// the commands' other sections it leaves write errors to w.
func Section5(w io.Writer, tr Traces, want func(item string) bool) {
	tables := []struct {
		name  string
		build func(Traces) *Table
	}{
		{"tableIII", TableIII}, {"tableIV", TableIV}, {"tableV", TableV},
		{"intervals", EventIntervalTable}, {"sharing", SharingTable},
	}
	for _, t := range tables {
		if want == nil || want(t.name) {
			t.build(tr).Render(w)
		}
	}
	figures := []struct {
		name  string
		build func(Traces) []*Chart
	}{
		{"fig1", Figure1}, {"fig2", Figure2},
		{"fig3", func(tr Traces) []*Chart { return []*Chart{Figure3(tr)} }},
		{"fig4", Figure4},
	}
	for _, f := range figures {
		if want == nil || want(f.name) {
			for _, c := range f.build(tr) {
				c.Render(w)
			}
		}
	}
}

// TableVI reproduces miss ratio as a function of cache size and write
// policy.
func TableVI(cacheSizes []int64, policies []cachesim.PolicySpec, res [][]*cachesim.Result) *Table {
	t := &Table{
		Title:  "Table VI. Miss ratio vs. cache size and write policy (4096-byte blocks).",
		Header: []string{"Cache Size"},
		Note: "Miss ratio is disk I/O operations divided by logical block accesses, " +
			"as in the paper's §6.1; the simulation replays the A5 trace.",
	}
	for _, p := range policies {
		t.Header = append(t.Header, p.Name)
	}
	for i, cs := range cacheSizes {
		label := Size(cs)
		if cs == cachesim.UnixCacheSize {
			label += " (UNIX)"
		}
		cells := []string{label}
		for j := range policies {
			cells = append(cells, Pct(res[i][j].MissRatio()))
		}
		t.AddRow(cells...)
	}
	return t
}

// Figure5 is the chart form of Table VI.
func Figure5(cacheSizes []int64, policies []cachesim.PolicySpec, res [][]*cachesim.Result) *Chart {
	c := &Chart{
		Title:  "Figure 5. Cache miss ratio vs. cache size and write policy (4-kbyte blocks, trace A5).",
		XLabel: "cache size (Mbytes)", YLabel: "miss ratio (percent)", LogX: true,
	}
	for j, p := range policies {
		s := Series{Name: p.Name}
		for i, cs := range cacheSizes {
			s.Points = append(s.Points, XY{X: float64(cs) / (1 << 20), Y: 100 * res[i][j].MissRatio()})
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// TableVII reproduces disk I/Os as a function of block size and cache
// size under delayed-write.
func TableVII(b *cachesim.BlockSizeSweepResult) *Table {
	t := &Table{
		Title:  "Table VII. Disk I/Os vs. block size and cache size (delayed-write).",
		Header: []string{"Block Size", "No Cache (accesses)"},
		Note: "The first data column is the total number of logical block accesses at " +
			"each block size; the rest are disk I/Os with an LRU delayed-write cache.",
	}
	for _, cs := range b.CacheSizes {
		t.Header = append(t.Header, Size(cs)+" cache")
	}
	for i, bs := range b.BlockSizes {
		cells := []string{Size(bs), Count(b.Accesses[i])}
		for j := range b.CacheSizes {
			cells = append(cells, Count(b.Results[i][j].DiskIOs()))
		}
		t.AddRow(cells...)
	}
	return t
}

// Figure6 is the chart form of Table VII.
func Figure6(b *cachesim.BlockSizeSweepResult) *Chart {
	c := &Chart{
		Title:  "Figure 6. Disk traffic vs. block size and cache size (delayed-write, trace A5).",
		XLabel: "block size (kbytes)", YLabel: "disk I/Os", LogX: true,
	}
	for j, cs := range b.CacheSizes {
		s := Series{Name: Size(cs) + " cache"}
		for i, bs := range b.BlockSizes {
			s.Points = append(s.Points, XY{X: float64(bs) / 1024, Y: float64(b.Results[i][j].DiskIOs())})
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// Figure7 reproduces the page-in experiment: miss ratios with exec-driven
// whole-file reads simulated versus ignored.
func Figure7(cacheSizes []int64, res [][2]*cachesim.Result) *Chart {
	c := &Chart{
		Title:  "Figure 7. Miss ratios with paging approximated by whole-file reads of executed programs (4-kbyte blocks, delayed-write, trace A5).",
		XLabel: "cache size (Mbytes)", YLabel: "miss ratio (percent)", LogX: true,
	}
	ignored := Series{Name: "Page-in ignored"}
	simulated := Series{Name: "Page-in simulated"}
	for i, cs := range cacheSizes {
		x := float64(cs) / (1 << 20)
		ignored.Points = append(ignored.Points, XY{X: x, Y: 100 * res[i][0].MissRatio()})
		simulated.Points = append(simulated.Points, XY{X: x, Y: 100 * res[i][1].MissRatio()})
	}
	c.Series = []Series{simulated, ignored}
	return c
}

// ResidencyTable reports the §6.2 delayed-write risk measurement.
func ResidencyTable(r *cachesim.Result) *Table {
	t := &Table{
		Title: "Block residency under delayed-write (paper §6.2).",
		Note: "The paper reports that with a 4-Mbyte delayed-write cache about 20% of " +
			"blocks stay in the cache longer than 20 minutes, so a crash could lose " +
			"substantial information.",
	}
	t.AddRow(fmt.Sprintf("Cache size: %s, block size %s", Size(r.Config.CacheSize), Size(r.Config.BlockSize)))
	t.AddRow(fmt.Sprintf("Blocks resident longer than %v: %s", r.Config.ResidencyThreshold, Pct(r.ResidencyOver)))
	t.AddRow(fmt.Sprintf("Dirty blocks never written (died in cache): %s", Pct(r.NeverWrittenFraction())))
	return t
}

// SharingTable reports cross-user file sharing (an extension beyond the
// paper's tables; its related work could not measure this directly).
func SharingTable(tr Traces) *Table {
	t := &Table{
		Title:  "Cross-user file sharing (extension).",
		Header: append([]string{""}, tr.Names...),
		Note: "A file is shared when more than one user (daemons included) opens or " +
			"executes it during the trace. Porcar (1977) could study only shared files, " +
			"under 10% of his system's; here the shared minority of files absorbs a " +
			"disproportionate share of accesses (headers, commands, administrative tables).",
	}
	row := func(label string, f func(a *analyzer.Analysis) string) {
		cells := []string{label}
		for _, a := range tr.Analyses {
			cells = append(cells, f(a))
		}
		t.AddRow(cells...)
	}
	row("Files accessed", func(a *analyzer.Analysis) string {
		return Count(a.Sharing.FilesAccessed)
	})
	row("Files shared between users", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sharing.FilesShared), Pct(a.Sharing.SharedFileFraction()))
	})
	row("Accesses to shared files", func(a *analyzer.Analysis) string {
		return fmt.Sprintf("%s (%s)", Count(a.Sharing.AccessesToShared), Pct(a.Sharing.SharedAccessFraction()))
	})
	return t
}
