package cachesim_test

import (
	"fmt"
	"log"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// A file is written, deleted while its blocks are still cached, and —
// under the delayed-write policy — never reaches the disk at all: the
// paper's headline mechanism.
func ExampleSimulateTape() {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindCreate, OpenID: 1, File: 5, User: 1, Mode: trace.WriteOnly},
		{Time: 50, Kind: trace.KindClose, OpenID: 1, NewPos: 8192},
		{Time: 30_000, Kind: trace.KindUnlink, File: 5},
	}
	tape, err := xfer.NewTape(events)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cachesim.SimulateTape(tape, cachesim.Config{
		BlockSize: 4096,
		CacheSize: 1 << 20,
		Write:     cachesim.DelayedWrite,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block accesses: %d\n", r.LogicalAccesses)
	fmt.Printf("disk I/Os: %d\n", r.DiskIOs())
	fmt.Printf("dirty blocks that died in cache: %d\n", r.DirtyDiscarded)
	// Output:
	// block accesses: 2
	// disk I/Os: 0
	// dirty blocks that died in cache: 2
}

// The same trace under write-through pays for every modified block.
func ExampleSimulateTape_writeThrough() {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindCreate, OpenID: 1, File: 5, User: 1, Mode: trace.WriteOnly},
		{Time: 50, Kind: trace.KindClose, OpenID: 1, NewPos: 8192},
		{Time: 30_000, Kind: trace.KindUnlink, File: 5},
	}
	tape, err := xfer.NewTape(events)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cachesim.SimulateTape(tape, cachesim.Config{
		BlockSize: 4096,
		CacheSize: 1 << 20,
		Write:     cachesim.WriteThrough,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk I/Os: %d (miss ratio %.0f%%)\n", r.DiskIOs(), 100*r.MissRatio())
	// Output:
	// disk I/Os: 2 (miss ratio 100%)
}

// StackDistancesTape computes the LRU miss-ratio curve for every cache
// size in one pass.
func ExampleStackDistancesTape() {
	var events []trace.Event
	id := trace.OpenID(1)
	tm := trace.Time(0)
	// Cycle through three one-block files twice: the second round's
	// reuse distance is 2, so it hits only with three or more blocks.
	for round := 0; round < 2; round++ {
		for f := trace.FileID(1); f <= 3; f++ {
			events = append(events,
				trace.Event{Time: tm, Kind: trace.KindOpen, OpenID: id, File: f, Mode: trace.ReadOnly, Size: 100},
				trace.Event{Time: tm + 10, Kind: trace.KindClose, OpenID: id, NewPos: 100},
			)
			id++
			tm += 100
		}
	}
	tape, err := xfer.NewTape(events)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cachesim.StackDistancesTape(tape, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2 blocks: %.0f%% miss\n", 100*r.MissRatio(2*4096))
	fmt.Printf("3 blocks: %.0f%% miss\n", 100*r.MissRatio(3*4096))
	// Output:
	// 2 blocks: 100% miss
	// 3 blocks: 50% miss
}
