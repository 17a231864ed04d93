package main

import (
	"fmt"
	"io"
	"os"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/adapt"
	"bsdtrace/internal/xfer"
)

// runForeign reports on one foreign trace imported through the adapt
// package, instead of the synthetic fleet. The adapter's class gates the
// battery via the analyzer's metric sets: block- and page-class traces
// render only the transfer-level sections (import accounting, transfer
// summary, a footprint-fitted Table VI sweep) because their open/close
// events are adapter scaffolding; strace imports carry real logical
// structure and get the Section-5 tables too.
func runForeign(out io.Writer, path, formatName string, fit int) error {
	format, err := adapt.ParseFormat(formatName)
	if err != nil {
		return err
	}
	if format == adapt.FormatBSD {
		return fmt.Errorf("-input needs a foreign -format (blockcsv, pageref, strace); native traces go through fsanalyze/fscachesim")
	}
	if fit < 1 {
		fit = 6
	}
	class := format.Class()

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	in, err := adapt.NewInput(f, format, false, false)
	if err != nil {
		return err
	}

	// One pass builds the tape and, when the class supports it, runs the
	// Section-5 analyzer, which then builds the tape in its own scan.
	var s *analyzer.Stream
	var tb *xfer.TapeBuilder
	if analyzer.LogicalMetrics.Supports(class) {
		s = analyzer.NewStream(analyzer.Options{})
		tb = s.AttachTape()
	} else {
		tb = xfer.NewTapeBuilder()
	}
	if err := trace.Each(in, func(e trace.Event) error {
		if s != nil {
			s.Feed(e) // drives tb
		} else {
			tb.Add(e)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var a *analyzer.Analysis
	if s != nil {
		a = s.Finish()
	}
	tape, err := tb.Finish()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	w := &errWriter{w: out}
	fmt.Fprintf(w, "Foreign-trace report: %s format, %s-class metrics\n", format, class)
	fmt.Fprintf(w, "Sections are gated by trace class: %s traces support %s only\n\n",
		class, supportedSets(class))

	name := path
	report.AdapterStatsTable([]string{name}, []adapt.Stats{in.Stats()}).Render(w)
	report.TransferSummaryTable([]string{name}, []xfer.Summary{xfer.Summarize(tape)}).Render(w)

	if a != nil {
		tr := report.Traces{Names: []string{name}, Analyses: []*analyzer.Analysis{a}}
		report.TableIII(tr).Render(w)
		report.TableV(tr).Render(w)
	}

	// The Table VI experiment on the imported transfers, with the cache
	// ladder fitted to the trace's own footprint: foreign traces rarely
	// live at the 1985 traces' scale, and a fitted ladder keeps the sweep
	// in the regime where the miss ratio moves.
	sizes := cachesim.FitCacheSizes(tape, 4096, fit)
	pols := cachesim.PaperPolicies()
	res, err := cachesim.PolicySweepTape(tape, 4096, sizes, pols)
	if err != nil {
		return err
	}
	vi := report.TableVI(sizes, pols, res)
	vi.Title = "Table VI analogue: miss ratio vs. cache size and write policy (footprint-fitted ladder)."
	vi.Note = fmt.Sprintf("The paper's Table VI experiment replayed over the imported transfers "+
		"at 4-kbyte blocks. Cache sizes are fitted to the trace's %s footprint "+
		"rather than the paper's 390KB-16MB ladder.", report.Size(cachesim.Footprint(tape, 4096)))
	return vi.Render(w)
}

// supportedSets names the metric sets a class supports, for the report
// header.
func supportedSets(c trace.Class) string {
	if analyzer.LogicalMetrics.Supports(c) {
		return analyzer.LogicalMetrics.Name + " and " + analyzer.TransferMetrics.Name
	}
	return analyzer.TransferMetrics.Name
}
