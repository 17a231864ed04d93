// Fileserver plays out the paper's motivating design exercise: a network
// of machines gives up its local disks for one shared file server. How
// should the server's cache be provisioned, and is pooling memory in one
// place actually better than leaving it distributed?
//
// The example merges the three traced machines' workloads onto one server
// (with identifier remapping, so files and users stay distinct), then
// compares the shared cache against per-machine caches at equal total
// memory, and finally sweeps the server cache up to the "use almost all of
// the server's memory" sizing the paper's Section 6 recommends.
//
//	go run ./examples/fileserver
package main

import (
	"fmt"
	"log"
	"os"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

func main() {
	const (
		blockSize  = 8192
		perMachine = 2 << 20
		duration   = 2 * trace.Hour
	)

	// One trace per machine, then the server's merged view.
	names := []string{"A5", "E3", "C4"}
	var machines [][]trace.Event
	var sources []trace.Source
	for _, name := range names {
		res, err := workload.Generate(workload.Config{
			Profile: name, Seed: 99, Duration: duration,
		})
		if err != nil {
			log.Fatal(err)
		}
		machines = append(machines, res.Events)
		sources = append(sources, trace.NewSliceSource(res.Events))
	}
	merged, err := trace.ReadSource(trace.NewMergeSource(sources...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged %d machines into one server trace: %d events\n\n",
		len(machines), len(merged))

	sim := func(events []trace.Event, cacheBytes int64) *cachesim.Result {
		tape, err := xfer.NewTape(events)
		if err != nil {
			log.Fatal(err)
		}
		r, err := cachesim.SimulateTape(tape, cachesim.Config{
			BlockSize: blockSize,
			CacheSize: cacheBytes,
			Write:     cachesim.FlushBack,
			// A server wants bounded crash loss: 5-minute flushes, the
			// compromise the paper's conclusions recommend.
			FlushInterval: 5 * trace.Minute,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	t := &report.Table{
		Title:  "Provisioning one file server for three machines (8-kbyte blocks, 5-minute flush-back)",
		Header: []string{"Configuration", "Total memory", "Disk I/Os", "Miss ratio"},
	}
	var splitIOs, splitAcc int64
	for i, events := range machines {
		r := sim(events, perMachine)
		splitIOs += r.DiskIOs()
		splitAcc += r.LogicalAccesses
		t.AddRow("private cache, "+names[i], report.Size(perMachine),
			report.Count(r.DiskIOs()), report.Pct(r.MissRatio()))
	}
	t.AddRow("private caches combined", report.Size(int64(len(machines))*perMachine),
		report.Count(splitIOs), report.Pct(float64(splitIOs)/float64(splitAcc)))
	for _, cs := range []int64{6 << 20, 12 << 20, 24 << 20} {
		r := sim(merged, cs)
		t.AddRow("shared server cache", report.Size(cs),
			report.Count(r.DiskIOs()), report.Pct(r.MissRatio()))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	shared := sim(merged, 6<<20)
	split := float64(splitIOs) / float64(splitAcc)
	fmt.Printf("At equal memory (6 MB), the shared cache's miss ratio is %.1f%% vs %.1f%% split:\n",
		100*shared.MissRatio(), 100*split)
	fmt.Println("the machines' bursts interleave, so pooled memory multiplexes better —")
	fmt.Println("the paper's case for dedicated file servers with large block caches.")
}
