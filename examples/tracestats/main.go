// Tracestats demonstrates the trace file API: it writes a trace to disk in
// both the binary and text formats, reads it back with the streaming
// reader, validates it, and prints per-kind statistics — the workflow for
// inspecting any trace file this repository produces.
//
//	go run ./examples/tracestats [trace.bin]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

func main() {
	var path string
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		// No trace given: make a small one in a temp directory.
		dir, err := os.MkdirTemp("", "tracestats")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "c4.trace")
		res, err := workload.Generate(workload.Config{
			Profile:  "C4",
			Seed:     1,
			Duration: 30 * trace.Minute,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteFile(path, res.Events); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events)\n", path, len(res.Events))
	}

	// Stream the file: the Reader decodes a batch at a time, so even
	// multi-gigabyte traces need constant memory.
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}

	var counts trace.Counts
	v := trace.NewValidator(0)
	var first, last trace.Time
	n := 0
	if err := trace.Each(r, func(e trace.Event) error {
		if n == 0 {
			first = e.Time
		}
		last = e.Time
		n++
		counts.Add(e)
		v.Check(e)
		if n <= 5 {
			fmt.Printf("  %s\n", e) // the text format, one event per line
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ... %d more events\n", n-5)

	fmt.Printf("\nspan %v .. %v (%.1f minutes)\n", first, last, (last-first).Seconds()/60)
	for k := trace.KindCreate; k <= trace.KindExec; k++ {
		fmt.Printf("%-9s %7d (%.1f%%)\n", k, counts.ByKind[k], 100*counts.Fraction(k))
	}
	if errs := v.Errs(); len(errs) > 0 {
		fmt.Printf("%d validation errors; first: %v\n", len(errs), errs[0])
	} else {
		fmt.Printf("trace is well-formed; %d opens still open at end of trace\n", v.Finish())
	}
}
