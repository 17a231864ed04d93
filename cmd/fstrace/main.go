// Command fstrace generates a synthetic 4.2 BSD file system trace using
// one of the three machine profiles from the paper (A5, E3, C4) and writes
// it in the binary trace format (or, with -text, the human-readable text
// format).
//
// A comma-separated profile list generates each machine's trace and merges
// them, with identifier remapping, into one stream — the shared file
// server's view of the workload.
//
// -shards N splits a profile's (scaled) user population into N
// independent shards that generate concurrently on all cores and merge
// into one time-ordered stream. Events flow from the generators through
// the merge straight into the output file, so memory stays bounded no
// matter how long the trace or how large the fleet: the trace is never
// materialized.
//
// Usage:
//
//	fstrace -profile A5 -duration 8h -seed 1 -o a5.trace
//	fstrace -profile C4 -duration 2h -text -o c4.txt
//	fstrace -profile A5,E3,C4 -o server.trace
//	fstrace -profile A5 -scale 16 -shards 8 -o fleet.trace
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"bsdtrace/internal/obs"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
}

// eventWriter is the sink both output formats share: binary via
// trace.Writer, text one formatted line per event.
type eventWriter struct {
	bin    *trace.Writer
	txt    *bufio.Writer
	counts trace.Counts
}

func (w *eventWriter) write(e trace.Event) error {
	w.counts.Add(e)
	if w.bin != nil {
		return w.bin.Write(e)
	}
	if _, err := w.txt.WriteString(e.String()); err != nil {
		return err
	}
	return w.txt.WriteByte('\n')
}

func (w *eventWriter) flush() error {
	if w.bin != nil {
		return w.bin.Flush()
	}
	return w.txt.Flush()
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fstrace", flag.ContinueOnError)
	var (
		profile  = fs.String("profile", "A5", "machine profile (A5, E3, or C4), or a comma-separated list to merge")
		seed     = fs.Int64("seed", 1, "random seed (same seed, same trace)")
		duration = fs.Duration("duration", 8*time.Hour, "simulated time span")
		scale    = fs.Float64("scale", 1.0, "user population multiplier")
		shards   = fs.Int("shards", 1, "generate the population as N concurrent shards (deterministic per seed+N)")
		out      = fs.String("o", "trace.bin", "output file")
		text     = fs.Bool("text", false, "write the text format instead of binary")
		v2       = fs.Bool("v2", false, "write the checkpointed version-2 binary framing (damage-resilient)")
		ckpt     = fs.Int("checkpoint", 0, "with -v2, records per resync checkpoint (0 = default)")
		diurnal  = fs.Bool("diurnal", false, "apply a day/night load cycle (use with -duration 24h or more)")
		quiet    = fs.Bool("q", false, "suppress the summary")
		manifest = fs.String("manifest", "", "write the run manifest (config, stage spans, metrics) to this file")
		progress = fs.Bool("progress", false, "live per-stage progress line on stderr (TTY only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// Refuse bad values before os.Create truncates the output file.
	profiles := strings.Split(*profile, ",")
	known := workload.Profiles()
	for _, name := range profiles {
		if _, ok := known[strings.TrimSpace(name)]; !ok {
			return fmt.Errorf("-profile: unknown profile %q (want A5, E3, or C4)", strings.TrimSpace(name))
		}
	}
	switch {
	case duration.Milliseconds() <= 0:
		return fmt.Errorf("-duration %v: must be at least 1ms", *duration)
	case *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 1):
		return fmt.Errorf("-scale %v: must be positive", *scale)
	case *shards < 0:
		return fmt.Errorf("-shards %d: must not be negative", *shards)
	case *ckpt < 0:
		return fmt.Errorf("-checkpoint %d: must not be negative", *ckpt)
	case *text && *v2:
		return fmt.Errorf("-v2 applies only to the binary format, not -text")
	case *ckpt > 0 && !*v2:
		return fmt.Errorf("-checkpoint %d applies only with -v2", *ckpt)
	}

	reg := obs.NewRegistry()
	reg.SetEnabled(*manifest != "" || *progress)
	var prog *obs.Progress
	if *progress {
		prog = obs.StartProgress(os.Stderr, reg)
	}
	defer prog.Stop()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := &eventWriter{}
	switch {
	case *text:
		w.txt = bufio.NewWriterSize(f, 1<<16)
	case *v2:
		w.bin = trace.NewWriterV2(f, *ckpt)
	default:
		w.bin = trace.NewWriter(f)
	}

	cfg := func(name string) workload.Config {
		return workload.Config{
			Profile:   strings.TrimSpace(name),
			Seed:      *seed,
			Duration:  trace.Time(duration.Milliseconds()),
			UserScale: *scale,
			Shards:    *shards,
			Diurnal:   *diurnal,
		}
	}

	var res *workload.Result
	if len(profiles) == 1 {
		// Single machine (possibly sharded): generate straight into the
		// output file.
		if res, err = generate(cfg(profiles[0]), reg, w.write); err != nil {
			return err
		}
	} else {
		// Several machines: each generates on its own goroutine, and a
		// k-way merge streams them into the output with identifier
		// remapping. Memory stays bounded by the fan-out's batches per
		// machine.
		producers := make([]func(func(trace.Event) error) error, len(profiles))
		for i, name := range profiles {
			producers[i] = func(emit func(trace.Event) error) error {
				_, err := generate(cfg(name), reg, emit)
				return err
			}
		}
		sink := w.write
		var sp *obs.Span
		if reg.Enabled() {
			sp = reg.StartSpan("merge")
			sink = func(e trace.Event) error { sp.AddOut(1); return w.write(e) }
		}
		if err := trace.MergeProducers(sink, producers...); err != nil {
			return err
		}
		sp.End()
	}

	if err := w.flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if reg.Enabled() {
		c := w.counts
		reg.Counter("events.total").Set(c.Total)
		for k := trace.KindCreate; k <= trace.KindExec; k++ {
			reg.Counter("events." + k.String()).Set(c.ByKind[k])
		}
		if st, err := os.Stat(*out); err == nil {
			reg.Counter("output.bytes").Set(st.Size())
		}
	}
	if *manifest != "" {
		m := reg.Manifest(obs.RunInfo{
			Command: "fstrace",
			Seed:    *seed,
			Config: map[string]string{
				"profile":  *profile,
				"duration": duration.String(),
				"scale":    fmt.Sprintf("%g", *scale),
				"shards":   fmt.Sprintf("%d", *shards),
				"text":     fmt.Sprintf("%t", *text),
				"v2":       fmt.Sprintf("%t", *v2),
				"diurnal":  fmt.Sprintf("%t", *diurnal),
			},
		})
		if err := m.WriteFile(*manifest); err != nil {
			return err
		}
	}

	if !*quiet {
		c := w.counts
		if len(profiles) > 1 {
			fmt.Fprintf(stdout, "wrote %s: %d merged profiles (%s), %v simulated each\n",
				*out, len(profiles), *profile, *duration)
		} else {
			fmt.Fprintf(stdout, "wrote %s: profile %s (%s), %d users, %v simulated\n",
				*out, res.Profile.Name, res.Profile.Machine, res.Profile.Users(), *duration)
		}
		fmt.Fprintf(stdout, "%d events:", c.Total)
		for k := trace.KindCreate; k <= trace.KindExec; k++ {
			fmt.Fprintf(stdout, " %s %d (%.1f%%)", k, c.ByKind[k], 100*c.Fraction(k))
		}
		fmt.Fprintln(stdout)
		if len(profiles) == 1 {
			fmt.Fprintf(stdout, "kernel moved %d bytes read, %d bytes written\n",
				res.KernelStats.BytesRead, res.KernelStats.BytesWritten)
		}
	}
	return nil
}

// generate streams one machine's trace into sink, under a per-profile
// generation span when observation is on.
func generate(cfg workload.Config, reg *obs.Registry, sink func(trace.Event) error) (*workload.Result, error) {
	var sp *obs.Span
	if reg.Enabled() {
		sp = reg.StartSpan("generate/" + cfg.Profile)
		out := sink
		sink = func(e trace.Event) error { sp.AddOut(1); return out(e) }
	}
	res, err := workload.GenerateStream(cfg, sink)
	if err != nil {
		return nil, err
	}
	sp.End()
	workload.PublishStats(reg, "kernel."+cfg.Profile, res.KernelStats)
	return res, nil
}
