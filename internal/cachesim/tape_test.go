package cachesim

import (
	"fmt"
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// paperConfigs returns every cache configuration the paper's Section-6
// tables evaluate: Table VI (cache size × write policy at 4-kbyte
// blocks), Table VII (block size × cache size under delayed-write), and
// Figure 7 (cache size × paging treatment).
func paperConfigs() []Config {
	var cfgs []Config
	for _, cs := range PaperCacheSizes() {
		for _, p := range PaperPolicies() {
			cfgs = append(cfgs, Config{BlockSize: 4096, CacheSize: cs, Write: p.Write, FlushInterval: p.Interval})
		}
	}
	for _, bs := range PaperBlockSizes() {
		for _, cs := range PaperBlockCacheSizes() {
			cfgs = append(cfgs, Config{BlockSize: bs, CacheSize: cs, Write: DelayedWrite})
		}
	}
	for _, cs := range PaperCacheSizes() {
		for j := 0; j < 2; j++ {
			cfgs = append(cfgs, Config{BlockSize: 4096, CacheSize: cs, Write: DelayedWrite, SimulatePaging: j == 1})
		}
	}
	return cfgs
}

// a2Intervals are ablation A2's flush-back intervals.
var a2Intervals = []trace.Time{
	trace.Second, 5 * trace.Second, 30 * trace.Second,
	trace.Minute, 5 * trace.Minute, 15 * trace.Minute, trace.Hour,
}

// TestMultiSimulateMatchesSimulate is the tape engine's equivalence
// oracle: for every paper configuration, replaying a shared tape through
// MultiSimulate must produce field-for-field the same Result as an
// independent SimulateTape call on a fresh tape of the raw events (which
// builds and resolves its own private copy). The one-pass LRU sweeps
// must in turn equal MultiSimulate: the same 60 configurations built
// through PolicySweepTape, BlockSizeSweepTape and PagingSweepTape, and
// A2's seven intervals through FlushIntervalSweepTape.
func TestMultiSimulateMatchesSimulate(t *testing.T) {
	events := randomTrace(7, 600)
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := paperConfigs()
	if len(cfgs) != 60 {
		t.Fatalf("expected the paper's 60 configurations, got %d", len(cfgs))
	}
	multi, err := MultiSimulate(tape, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := SimulateTape(mustTape(t, events), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(multi[i], want) {
			t.Errorf("config %d (%+v): MultiSimulate %+v != SimulateTape %+v", i, cfg, multi[i], want)
		}
	}

	policy, err := PolicySweepTape(tape, 4096, PaperCacheSizes(), PaperPolicies())
	if err != nil {
		t.Fatal(err)
	}
	block, err := BlockSizeSweepTape(tape, PaperBlockSizes(), PaperBlockCacheSizes())
	if err != nil {
		t.Fatal(err)
	}
	paging, err := PagingSweepTape(tape, 4096, PaperCacheSizes())
	if err != nil {
		t.Fatal(err)
	}
	flush, err := FlushIntervalSweepTape(tape, 4096, 2<<20, a2Intervals)
	if err != nil {
		t.Fatal(err)
	}
	var swept []*Result
	for _, row := range append(policy, block.Results...) {
		swept = append(swept, row...)
	}
	for _, pair := range paging {
		swept = append(swept, pair[0], pair[1])
	}
	swept = append(swept, flush...)
	for _, iv := range a2Intervals {
		cfgs = append(cfgs, Config{BlockSize: 4096, CacheSize: 2 << 20, Write: FlushBack, FlushInterval: iv})
	}
	if multi, err = MultiSimulate(tape, cfgs); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if !reflect.DeepEqual(swept[i], multi[i]) {
			t.Errorf("config %d (%+v): sweep %+v != MultiSimulate %+v", i, cfg, swept[i], multi[i])
		}
	}
}

// TestMultiSimulateDeterministic re-runs the same sweep on fresh tapes
// and demands identical results: worker scheduling must not leak into
// any field.
func TestMultiSimulateDeterministic(t *testing.T) {
	events := randomTrace(11, 400)
	cfgs := paperConfigs()
	var prev []*Result
	for round := 0; round < 3; round++ {
		tape, err := xfer.NewTape(events)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := MultiSimulate(tape, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(rs, prev) {
			t.Fatalf("round %d differs from previous", round)
		}
		prev = rs
	}
}

func TestMultiSimulateValidatesAllConfigs(t *testing.T) {
	events := randomTrace(3, 50)
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite},
		{BlockSize: 0, CacheSize: 1 << 20, Write: DelayedWrite},
	}
	if _, err := MultiSimulate(tape, cfgs); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// simpleLRU is an independent LRU cache used as an oracle: a plain
// map + doubly-linked-list implementation with none of the simulator's
// machinery.
type simpleLRU struct {
	cap    int
	blocks map[int32]*lruNode
	head   *lruNode // most recent
	tail   *lruNode
}

type lruNode struct {
	id         int32
	prev, next *lruNode
}

func (c *simpleLRU) touch(n *lruNode) {
	if c.head == n {
		return
	}
	// unlink
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if c.tail == n {
		c.tail = n.prev
	}
	// push front
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// access references a block, returning true on hit.
func (c *simpleLRU) access(id int32) bool {
	if n, ok := c.blocks[id]; ok {
		c.touch(n)
		return true
	}
	if len(c.blocks) >= c.cap {
		victim := c.tail
		c.tail = victim.prev
		if c.tail != nil {
			c.tail.next = nil
		} else {
			c.head = nil
		}
		delete(c.blocks, victim.id)
	}
	n := &lruNode{id: id}
	c.blocks[id] = n
	c.touch(n)
	return false
}

// TestStackOracleAgainstLRUCache checks Mattson's one-pass analysis
// against brute force: for several cache sizes, an independent LRU cache
// replaying the tape's block reference string must miss exactly
// StackResult.Misses times.
func TestStackOracleAgainstLRUCache(t *testing.T) {
	events := randomTrace(19, 500)
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int64{1024, 4096, 8192} {
		sr, err := StackDistancesTape(tape, bs)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild the same reference string the analysis consumed.
		r := resolvedFor(tape, bs)
		var refs []int32
		for i := range tape.Ops {
			op := &tape.Ops[i]
			if op.Kind == xfer.OpTransfer {
				refs = append(refs, r.accessIDs[r.accessOff[op.Xfer]:r.accessOff[op.Xfer+1]]...)
			}
		}
		for _, capBlocks := range []int{1, 2, 7, 64, 1024} {
			lru := &simpleLRU{cap: capBlocks, blocks: make(map[int32]*lruNode)}
			var misses int64
			for _, id := range refs {
				if !lru.access(id) {
					misses++
				}
			}
			if got := sr.Misses(int64(capBlocks) * bs); got != misses {
				t.Errorf("bs %d cap %d: stack misses %d, LRU cache missed %d", bs, capBlocks, got, misses)
			}
		}
	}
}

// countTapeAccesses is the arithmetic oracle for the simulator's
// LogicalAccesses: the number of logical block accesses a tape generates
// at the given block size, counted from the transfers' block spans with
// no simulation.
func countTapeAccesses(tape *xfer.Tape, blockSize int64, simulatePaging bool) int64 {
	var n int64
	for i := range tape.Ops {
		op := &tape.Ops[i]
		if op.Kind == xfer.OpTransfer || (op.Kind == xfer.OpExec && simulatePaging) {
			t := &tape.Transfers[op.Xfer]
			n += (t.End()-1)/blockSize - t.Offset/blockSize + 1
		}
	}
	return n
}

// TestCountTapeAccessesMatchesSimulate: the arithmetic access count must
// agree with what a simulation actually bills.
func TestCountTapeAccessesMatchesSimulate(t *testing.T) {
	tape := mustTape(t, randomTrace(23, 300))
	for _, bs := range PaperBlockSizes() {
		for _, paging := range []bool{false, true} {
			want := countTapeAccesses(tape, bs, paging)
			r, err := SimulateTape(tape, Config{BlockSize: bs, CacheSize: 1 << 20, Write: DelayedWrite, SimulatePaging: paging})
			if err != nil {
				t.Fatal(err)
			}
			if r.LogicalAccesses != want {
				t.Errorf("bs %d paging %v: simulated accesses %d != count %d", bs, paging, r.LogicalAccesses, want)
			}
		}
	}
}

// ExampleMultiSimulate demonstrates sweeping many configurations over
// one tape.
func ExampleMultiSimulate() {
	b := newTB()
	b.write(1, 16384)
	for i := 0; i < 4; i++ {
		b.read(1, 16384)
	}
	tape, _ := xfer.NewTape(b.events)
	rs, _ := MultiSimulate(tape, []Config{
		{BlockSize: 4096, CacheSize: 8192, Write: DelayedWrite},
		{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite},
	})
	for _, r := range rs {
		fmt.Printf("cache %7d: %d disk I/Os\n", r.Config.CacheSize, r.DiskIOs())
	}
	// Output:
	// cache    8192: 20 disk I/Os
	// cache 1048576: 0 disk I/Os
}
