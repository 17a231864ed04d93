// Command fsanalyze runs the paper's Section-5 reference-pattern analysis
// over one or more trace files and prints Tables III-V, the §3.1
// inter-event intervals, the sharing extension, and Figures 1-4.
//
// Binary traces are consumed as streams: each file is read once, event by
// event, through the analyzer's incremental state machine, so the trace
// never needs to fit in memory.
//
// Usage:
//
//	fsanalyze a5.trace e3.trace c4.trace
//	fsanalyze -only tableV a5.trace
//	fsanalyze -validate a5.trace
//	fsanalyze -text c4.txt            # text-format input
//	fsanalyze -top 10 a5.trace        # busiest files
//	fsanalyze -from 1h -to 2h a5.trace  # analyze one window
//
// Foreign traces import through the adapt package. Their class decides
// which half of the metric battery applies: strace logs carry real
// open/close structure and get the full Section-5 analysis, while block
// and page traces only support the transfer-level sections.
//
//	fsanalyze -format strace app.strace
//	fsanalyze -format blockcsv volume.csv
//	fsanalyze -format pageref refs.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/xfer"
)

type options struct {
	only     string
	format   string
	validate bool
	text     bool
	lenient  bool
	top      int
	from, to time.Duration
	manifest string
	progress bool
}

func main() {
	var opts options
	flag.StringVar(&opts.only, "only", "", "print only one result: tableIII, tableIV, tableV, intervals, sharing, fig1..fig4, transfers")
	flag.StringVar(&opts.format, "format", "bsd", "trace format: bsd, blockcsv, pageref, strace")
	flag.BoolVar(&opts.validate, "validate", false, "validate the trace(s) and exit")
	flag.BoolVar(&opts.text, "text", false, "read the text trace format instead of binary")
	flag.BoolVar(&opts.lenient, "lenient", false, "repair damaged traces and analyze what survives instead of failing on partial ingest")
	flag.IntVar(&opts.top, "top", 0, "also list the N busiest files per trace")
	flag.DurationVar(&opts.from, "from", 0, "analyze only events at or after this offset")
	flag.DurationVar(&opts.to, "to", 0, "analyze only events before this offset (0 = end of trace)")
	flag.StringVar(&opts.manifest, "manifest", "", "write the run manifest (config, stage spans, metrics) to this file")
	flag.BoolVar(&opts.progress, "progress", false, "live per-stage progress line on stderr (TTY only)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: fsanalyze [flags] trace.bin...")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Args(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "fsanalyze:", err)
		os.Exit(1)
	}
}

// checkRanges rejects a window that would select nothing or that a
// negative offset would silently widen, and a negative -top.
func (o options) checkRanges() error {
	switch {
	case o.from < 0:
		return fmt.Errorf("-from %v is negative", o.from)
	case o.to < 0:
		return fmt.Errorf("-to %v is negative", o.to)
	case o.to > 0 && o.to <= o.from:
		return fmt.Errorf("-to %v is not after -from %v: the window is empty", o.to, o.from)
	case o.top < 0:
		return fmt.Errorf("-top %d is negative", o.top)
	}
	return nil
}

// want reports whether the named section should print under -only.
func (o options) want(name string) bool {
	return o.only == "" || strings.EqualFold(o.only, name)
}

// errWriter passes writes through until the first one fails, then keeps
// returning that error: sections render without checking every write
// and run returns the first failure at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (n int, err error) {
	if e.err == nil {
		n, e.err = e.w.Write(p)
	}
	return n, e.err
}

func run(out io.Writer, paths []string, opts options) error {
	w := &errWriter{w: out}
	if opts.format == "" {
		opts.format = "bsd"
	}
	format, err := adapt.ParseFormat(opts.format)
	if err != nil {
		return err
	}
	if opts.only != "" && analyzer.SectionMetrics(opts.only) == nil {
		return fmt.Errorf("unknown section %q", opts.only)
	}
	if err := opts.checkRanges(); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	reg.SetEnabled(opts.manifest != "" || opts.progress)
	var prog *obs.Progress
	if opts.progress {
		prog = obs.StartProgress(os.Stderr, reg)
	}
	defer prog.Stop()
	// Every successful return goes through writeManifest, which reports
	// a failed output write first.
	writeManifest := func() error {
		if w.err != nil || opts.manifest == "" {
			return w.err
		}
		m := reg.Manifest(obs.RunInfo{
			Command: "fsanalyze",
			Config: map[string]string{
				"traces":   strings.Join(paths, ","),
				"only":     opts.only,
				"format":   format.String(),
				"validate": fmt.Sprintf("%t", opts.validate),
				"text":     fmt.Sprintf("%t", opts.text),
				"lenient":  fmt.Sprintf("%t", opts.lenient),
				"top":      fmt.Sprintf("%d", opts.top),
				"from":     opts.from.String(),
				"to":       opts.to.String(),
			},
		})
		return m.WriteFile(opts.manifest)
	}

	// Logical-class traces (native ones and strace imports) get the
	// Section-5 battery; block and page imports only the transfer-level
	// sections, because their open/close events are adapter scaffolding.
	// A foreign import, or any trace under -only transfers, also builds
	// its tape in the same pass.
	class := format.Class()
	foreign := format != adapt.FormatBSD
	tape := foreign || strings.EqualFold(opts.only, "transfers")
	if opts.only != "" {
		if err := analyzer.CheckSection(opts.only, class); err != nil {
			return err
		}
	}
	if opts.top > 0 && class != trace.ClassLogical {
		return fmt.Errorf("-top needs logical structure: %w",
			&analyzer.UnsupportedClassError{Metric: "busiest files", Class: class})
	}

	tr := report.Traces{}
	var (
		names []string
		tops  []*analyzer.TopAccum
		sums  []xfer.Summary
		stats []adapt.Stats
	)
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		in, err := adapt.NewInput(f, format, opts.text, opts.lenient)
		if err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		var src trace.Source = in
		if opts.from > 0 || opts.to > 0 {
			to := trace.Time(math.MaxInt64)
			if opts.to > 0 {
				to = trace.Time(opts.to.Milliseconds())
			}
			src = trace.WindowSource(src, trace.Time(opts.from.Milliseconds()), to)
		}

		// One pass feeds the validator, or the analyzer (which drives
		// the tape, when there is one) and the busiest-file accumulator.
		stage := "analyze/"
		var (
			v   *trace.Validator
			s   *analyzer.Stream
			tb  *xfer.TapeBuilder
			top *analyzer.TopAccum
			n   int
		)
		switch {
		case opts.validate:
			stage, v = "validate/", trace.NewValidator(0)
		case class == trace.ClassLogical:
			s = analyzer.NewStream(analyzer.Options{})
			if tape {
				tb = s.AttachTape()
			}
			if opts.top > 0 {
				top = analyzer.NewTopAccum()
			}
		default:
			tb = xfer.NewTapeBuilder()
		}
		err = trace.Each(reg.Instrument(stage+name, src), func(e trace.Event) error {
			n++
			switch {
			case v != nil:
				v.Check(e)
			case s != nil:
				s.Feed(e)
			default:
				tb.Add(e)
			}
			if top != nil {
				top.Feed(e)
			}
			return nil
		})
		f.Close()
		if cerr := in.Check(); cerr != nil {
			return fmt.Errorf("%s: %w; rerun with -lenient to repair and continue", path, cerr)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, d := range in.Damage() {
			fmt.Fprintf(os.Stderr, "fsanalyze: %s: %s\n", path, d)
		}
		in.Publish(reg, "skip."+name, "repair."+name)

		if v != nil {
			printValidation(w, path, name, n, v, in, format, reg)
			continue
		}
		if s != nil {
			tr.Names = append(tr.Names, name)
			tr.Analyses = append(tr.Analyses, s.Finish())
			tops = append(tops, top)
		}
		if tb != nil {
			tape, err := tb.Finish()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			sums = append(sums, xfer.Summarize(tape))
			stats = append(stats, in.Stats())
			names = append(names, name)
		}
	}
	if opts.validate {
		return writeManifest()
	}

	if class == trace.ClassLogical {
		renderSections(w, tr, tops, opts)
	}
	if tape && opts.want("transfers") {
		report.TransferSummaryTable(names, sums).Render(w)
	}
	if foreign && opts.only == "" {
		report.AdapterStatsTable(names, stats).Render(w)
	}
	return writeManifest()
}

// printValidation prints one validated trace's findings and tally: the
// kinds seen for a native trace, the import accounting for a foreign one.
func printValidation(w io.Writer, path, name string, n int, v *trace.Validator, in *adapt.Input, format adapt.Format, reg *obs.Registry) {
	unclosed := v.Finish()
	for _, e := range v.Errs() {
		fmt.Fprintf(w, "%s: %v\n", path, e)
	}
	if format == adapt.FormatBSD {
		if fb := v.FirstBad(); fb != nil {
			fmt.Fprintf(w, "%s: first failing event: %s\n", path, fb)
		}
		c := v.Stats()
		var kinds []string
		for k := trace.KindCreate; int(k) <= trace.NumKinds; k++ {
			kinds = append(kinds, fmt.Sprintf("%d %s", c.ByKind[k], k))
		}
		fmt.Fprintf(w, "%s: seen %s\n", path, strings.Join(kinds, ", "))
	} else {
		fmt.Fprintf(w, "%s: %s import: %s\n", path, format, in.Stats().String())
	}
	fmt.Fprintf(w, "%s: %d events, %d validation errors, %d unclosed opens\n",
		path, n, len(v.Errs()), unclosed)
	if reg.Enabled() {
		reg.Counter("validate." + name + ".events").Set(int64(n))
		reg.Counter("validate." + name + ".errors").Set(int64(len(v.Errs())))
		reg.Counter("validate." + name + ".unclosed").Set(int64(unclosed))
	}
}

// renderSections prints the logical battery (and any -top listings) for
// analyzed logical-class traces.
func renderSections(w io.Writer, tr report.Traces, tops []*analyzer.TopAccum, opts options) {
	report.Section5(w, tr, opts.want)

	if opts.top > 0 {
		for i, top := range tops {
			t := &report.Table{
				Title:  fmt.Sprintf("Busiest files in %s (top %d by opens+execs).", tr.Names[i], opts.top),
				Header: []string{"File ID", "Opens", "Execs", "Bytes moved", "Last size", "Shared"},
				Note: "Files are identified only by trace id, as in the 1985 traces. The " +
					"megabyte-scale entries at the top are the administrative files of the " +
					"paper's Figure 2 tail; the heavily executed ones are shared commands.",
			}
			for _, f := range top.Top(opts.top) {
				shared := "no"
				if f.Users > 1 {
					shared = "yes"
				}
				t.AddRow(fmt.Sprintf("%d", f.File), report.Count(f.Opens), report.Count(f.Execs),
					report.Count(f.Bytes), report.Size(f.LastSize), shared)
			}
			t.Render(w)
		}
	}
}
