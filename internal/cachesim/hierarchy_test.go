package cachesim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

func hierarchyMachines(t *testing.T) []*xfer.Tape {
	t.Helper()
	tapes := make([]*xfer.Tape, 3)
	for m, seed := range []int64{5, 9, 13} {
		tapes[m] = mustTape(t, randomTrace(seed, 400))
	}
	return tapes
}

// TestHierarchyThreeTier exercises a RAM/flash/disk stack with a zoo
// policy in the middle and checks the flow-conservation invariants:
// every operation a tier forwards arrives at the tier below, busy time
// follows the latency model, wear tracks media writes, and reruns are
// bit-identical.
func TestHierarchyThreeTier(t *testing.T) {
	tapes := hierarchyMachines(t)
	cfg := HierarchyConfig{
		BlockSize: 4096,
		Tiers: []Tier{
			{Name: "ram", Size: 32 * 4096, Replacement: LRU, Write: WriteThrough},
			{Name: "flash", Size: 1 << 20, Replacement: ARC, Seed: 1, Write: DelayedWrite,
				ReadLatency: 1 * trace.Millisecond, WriteLatency: 2 * trace.Millisecond,
				EnduranceWrites: 1000},
			{Name: "disk",
				ReadLatency: 10 * trace.Millisecond, WriteLatency: 10 * trace.Millisecond},
		},
	}
	h, err := HierarchySimulateTapes(tapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ram, flash, disk := &h.Tiers[0], &h.Tiers[1], &h.Tiers[2]
	if flash.Reads != ram.ReadMisses {
		t.Errorf("flash saw %d reads, ram forwarded %d", flash.Reads, ram.ReadMisses)
	}
	if flash.Writes != ram.WriteBacks {
		t.Errorf("flash saw %d writes, ram forwarded %d", flash.Writes, ram.WriteBacks)
	}
	if disk.Reads != flash.ReadMisses {
		t.Errorf("disk saw %d reads, flash forwarded %d", disk.Reads, flash.ReadMisses)
	}
	if disk.Writes != flash.WriteBacks {
		t.Errorf("disk saw %d writes, flash forwarded %d", disk.Writes, flash.WriteBacks)
	}
	if flash.Fills != flash.ReadMisses {
		t.Errorf("flash fills %d, read misses %d", flash.Fills, flash.ReadMisses)
	}
	if hr := flash.HitRatio(); hr < 0 || hr > 1 {
		t.Errorf("flash hit ratio %v out of range", hr)
	}
	wantBusy := cfg.Tiers[1].ReadLatency*trace.Time(flash.Reads) +
		cfg.Tiers[1].WriteLatency*trace.Time(flash.Writes+flash.Fills)
	if flash.BusyTime != wantBusy {
		t.Errorf("flash busy time %v, want %v", flash.BusyTime, wantBusy)
	}
	if flash.Writes+flash.Fills > 0 {
		if flash.MaxBlockWrites < 1 {
			t.Error("flash media written but MaxBlockWrites = 0")
		}
		if flash.MeanBlockWrites <= 0 || flash.MeanBlockWrites > float64(flash.MaxBlockWrites) {
			t.Errorf("flash mean block writes %v vs max %d", flash.MeanBlockWrites, flash.MaxBlockWrites)
		}
		want := float64(flash.MaxBlockWrites) / float64(cfg.Tiers[1].EnduranceWrites)
		if flash.WearFraction != want {
			t.Errorf("flash wear fraction %v, want %v", flash.WearFraction, want)
		}
	}
	if disk.Writes > 0 && disk.WearFraction != 0 {
		t.Errorf("disk has no endurance budget but wear fraction %v", disk.WearFraction)
	}
	if ram.MaxBlockWrites != 0 {
		t.Errorf("tier 0 wear tracked (%d), want untracked", ram.MaxBlockWrites)
	}

	again, err := HierarchySimulateTapes(tapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Tiers {
		a, b := h.Tiers[i], again.Tiers[i]
		if a != b {
			t.Errorf("tier %d rerun differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestHierarchyZooTiers runs every policy as the shared-tier policy of
// a three-tier stack: the engine must accept the whole zoo.
func TestHierarchyZooTiers(t *testing.T) {
	tapes := hierarchyMachines(t)[:1]
	for _, rep := range AllReplacements() {
		h, err := HierarchySimulateTapes(tapes, HierarchyConfig{
			BlockSize: 4096,
			Tiers: []Tier{
				{Name: "ram", Size: 16 * 4096, Replacement: LRU, Write: WriteThrough},
				{Name: "mid", Size: 256 * 4096, Replacement: rep, Seed: 1, Write: DelayedWrite},
				{Name: "disk"},
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if h.DiskReads() > h.Tiers[1].Reads {
			t.Errorf("%v: disk reads %d exceed mid-tier reads %d", rep, h.DiskReads(), h.Tiers[1].Reads)
		}
	}
}

// TestHierarchyValidation: malformed tier stacks must be rejected up
// front.
func TestHierarchyValidation(t *testing.T) {
	tapes := hierarchyMachines(t)[:1]
	bad := []HierarchyConfig{
		{BlockSize: 4096, Tiers: []Tier{{Name: "disk"}}}, // one tier
		{BlockSize: 4096, Tiers: []Tier{ // finite final tier
			{Name: "ram", Size: 1 << 20}, {Name: "disk", Size: 1 << 20}}},
		{BlockSize: 4096, Tiers: []Tier{ // unbounded middle tier
			{Name: "ram", Size: 1 << 20}, {Name: "mid"}, {Name: "disk"}}},
		{BlockSize: 4096, Tiers: []Tier{ // unknown policy
			{Name: "ram", Size: 1 << 20, Replacement: numReplacements}, {Name: "disk"}}},
		{BlockSize: 0, Tiers: []Tier{ // bad block size
			{Name: "ram", Size: 1 << 20}, {Name: "disk"}}},
	}
	for i, cfg := range bad {
		if _, err := HierarchySimulateTapes(tapes, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := HierarchySimulateTapes(nil, bad[0]); err == nil {
		t.Error("zero machines accepted")
	}
}

// twoLevel is the diskless-workstation network: a write-through LRU
// client cache per machine, one shared LRU server cache applying the
// given write policy, and the server's disk.
func twoLevel(clientCache, serverCache int64, w WritePolicy) HierarchyConfig {
	return HierarchyConfig{BlockSize: 4096, Tiers: []Tier{
		{Name: "client", Size: clientCache, Write: WriteThrough},
		{Name: "server", Size: serverCache, Write: w},
		{Name: "disk"},
	}}
}

func mustHierarchy(t *testing.T, tapes []*xfer.Tape, cfg HierarchyConfig) *HierarchyResult {
	t.Helper()
	r, err := HierarchySimulateTapes(tapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func twoMachines(t *testing.T) []*xfer.Tape {
	t.Helper()
	a := newTB()
	a.write(1, 8192)
	a.read(1, 8192)
	a.read(2, 4096) // cold: client miss -> server miss -> disk
	b := newTB()
	b.read(5, 4096) // cold on machine B
	b.read(5, 4096) // client hit
	return []*xfer.Tape{mustTape(t, a.events), mustTape(t, b.events)}
}

func TestTwoLevelBasics(t *testing.T) {
	r := mustHierarchy(t, twoMachines(t), twoLevel(1<<20, 4<<20, DelayedWrite))
	// Machine A: 2 write accesses (forwarded), 2 read hits (just
	// written), 1 cold read (forward). Machine B: 1 cold read (forward),
	// 1 hit. Total accesses 7.
	if r.ClientAccesses != 7 {
		t.Errorf("ClientAccesses = %d, want 7", r.ClientAccesses)
	}
	if got := r.Tiers[0].WriteBacks; got != 2 {
		t.Errorf("write forwards = %d, want 2", got)
	}
	if got := r.Tiers[0].ReadMisses; got != 2 {
		t.Errorf("client read misses = %d, want 2", got)
	}
	if r.NetworkBlocks() != 4 {
		t.Errorf("NetworkBlocks = %d, want 4", r.NetworkBlocks())
	}
	// Server: 2 cold reads hit the disk; the 2 forwarded writes stay
	// dirty in the delayed-write server cache.
	if r.DiskReads() != 2 {
		t.Errorf("DiskReads = %d, want 2", r.DiskReads())
	}
	if r.DiskWrites() != 0 {
		t.Errorf("DiskWrites = %d, want 0 (delayed)", r.DiskWrites())
	}
	if got, want := r.EndToEndMissRatio(), 2.0/7; got != want {
		t.Errorf("EndToEndMissRatio = %v, want %v", got, want)
	}
}

func TestTwoLevelServerWriteThrough(t *testing.T) {
	r := mustHierarchy(t, twoMachines(t), twoLevel(1<<20, 4<<20, WriteThrough))
	if r.DiskWrites() != 2 {
		t.Errorf("DiskWrites = %d, want 2 under write-through", r.DiskWrites())
	}
}

func TestTwoLevelPurgePropagates(t *testing.T) {
	// A file written on machine A and deleted: its dirty blocks must die
	// at the server too, costing no disk write even though the client
	// wrote them through.
	a := newTB()
	a.write(1, 8192)
	a.unlink(1)
	r := mustHierarchy(t, []*xfer.Tape{mustTape(t, a.events)}, twoLevel(1<<20, 4<<20, DelayedWrite))
	if ios := r.DiskReads() + r.DiskWrites(); ios != 0 {
		t.Errorf("server disk I/O = %d, want 0 (data died at the server)", ios)
	}
}

func TestTwoLevelTinyClientForwardsMore(t *testing.T) {
	tapes := []*xfer.Tape{mustTape(t, randomTrace(5, 300))}
	small := mustHierarchy(t, tapes, twoLevel(8192, 8<<20, DelayedWrite))
	big := mustHierarchy(t, tapes, twoLevel(4<<20, 8<<20, DelayedWrite))
	if small.NetworkBlocks() <= big.NetworkBlocks() {
		t.Errorf("smaller client cache should forward more: %d vs %d",
			small.NetworkBlocks(), big.NetworkBlocks())
	}
	if small.ClientAccesses != big.ClientAccesses {
		t.Errorf("client accesses should not depend on cache size")
	}
}

func TestTwoLevelMachinesDoNotCollide(t *testing.T) {
	// Two machines use the same file id for different files; the server
	// must keep them separate (two distinct cold reads).
	a := newTB()
	a.read(1, 4096)
	b := newTB()
	b.read(1, 4096)
	r := mustHierarchy(t, []*xfer.Tape{mustTape(t, a.events), mustTape(t, b.events)},
		twoLevel(1<<20, 4<<20, DelayedWrite))
	if r.DiskReads() != 2 {
		t.Errorf("DiskReads = %d, want 2 (no aliasing across machines)", r.DiskReads())
	}
}

func TestTwoLevelErrors(t *testing.T) {
	if _, err := HierarchySimulateTapes(nil, twoLevel(1, 1, DelayedWrite)); err == nil {
		t.Errorf("no machines accepted")
	}
	good := []*xfer.Tape{mustTape(t, []trace.Event{{Time: 0, Kind: trace.KindUnlink, File: 1}})}
	cfg := twoLevel(1<<20, 1<<20, DelayedWrite)
	cfg.BlockSize = 0
	if _, err := HierarchySimulateTapes(good, cfg); err == nil {
		t.Errorf("zero block size accepted")
	}
}

// stableSortOps is the oracle for mergeOps: the concatenated lists,
// stable-sorted by time.
func stableSortOps(lists [][]serverOp) []serverOp {
	var all []serverOp
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].time < all[j].time })
	return all
}

// The linear merge must reproduce the stable sort exactly, ties included:
// machine order first, then emission order.
func TestMergeOpsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lists := make([][]serverOp, rng.Intn(5))
		for m := range lists {
			var now trace.Time
			for i := rng.Intn(40); i > 0; i-- {
				now += trace.Time(rng.Intn(3)) // many ties within and across lists
				lists[m] = append(lists[m], serverOp{time: now, kind: serverOpKind(rng.Intn(3)),
					id: int32(m<<16 | i), size: int64(trial)})
			}
		}
		want := stableSortOps(lists)
		got := mergeOps(append([][]serverOp(nil), lists...))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge differs from the stable sort:\n%v\nvs\n%v", trial, got, want)
		}
	}

	// Real tier-0 traffic from three machines.
	tapes := hierarchyMachines(t)
	cfg := Config{BlockSize: 4096, CacheSize: 32 * 4096, Write: WriteThrough}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	lists := make([][]serverOp, len(tapes))
	var blockBase, fileBase int32
	for m, tape := range tapes {
		r := resolvedFor(tape, 4096)
		lists[m] = runClient(tape, r, cfg, blockBase, fileBase, false).ops
		blockBase += int32(r.nBlocks())
		fileBase += int32(len(r.fileBlocks))
	}
	want := stableSortOps(lists)
	_, _, got := runClients(tapes, 4096, cfg, false)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("tier-0 traffic: merged %d ops, the stable sort has %d, or they differ", len(got), len(want))
	}
}

// Every cache tier emits its traffic in nondecreasing time, whatever its
// write policy: the invariant that lets the merge replace a sort and
// lets a shared tier's output feed the next tier unsorted.
func TestTierTrafficInTimeOrder(t *testing.T) {
	tapes := hierarchyMachines(t)
	ordered := func(what string, times []trace.Time) {
		t.Helper()
		if len(times) == 0 {
			t.Fatalf("%s: no traffic; trace too weak", what)
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("%s: op %d at %v after one at %v", what, i, times[i], times[i-1])
			}
		}
	}
	for _, w := range []struct {
		policy   WritePolicy
		interval trace.Time
	}{{WriteThrough, 0}, {DelayedWrite, 0}, {FlushBack, 30 * trace.Second}} {
		cfg := Config{BlockSize: 4096, CacheSize: 16 * 4096, Write: w.policy, FlushInterval: w.interval}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		for m, tape := range tapes {
			var times []trace.Time
			for _, op := range runClient(tape, resolvedFor(tape, 4096), cfg, 0, 0, false).ops {
				times = append(times, op.time)
			}
			ordered(w.policy.String()+" tier 0, machine "+string(rune('A'+m)), times)
		}
		_, merged, ops := runClients(tapes, 4096, cfg, false)
		var times []trace.Time
		replayTierOps(ops, merged, cfg,
			func(_ int32, _ bool, tm trace.Time) { times = append(times, tm) },
			func(_ int32, _ int64, tm trace.Time) { times = append(times, tm) })
		ordered(w.policy.String()+" shared tier", times)
	}
}

// storeOracle replays a stack with every cache tier's traffic, purges
// included, built into an op list, and counts the backing store from the
// last list.
func storeOracle(t *testing.T, tapes []*xfer.Tape, cfg HierarchyConfig) TierResult {
	t.Helper()
	tierCfgs, err := cfg.tierConfigs()
	if err != nil {
		t.Fatal(err)
	}
	_, merged, ops := runClients(tapes, cfg.BlockSize, tierCfgs[0], false)
	for i := 1; i < len(tierCfgs); i++ {
		var next []serverOp
		replayTierOps(ops, merged, tierCfgs[i],
			func(id int32, write bool, tm trace.Time) {
				kind := opRead
				if write {
					kind = opWrite
				}
				next = append(next, serverOp{time: tm, kind: kind, id: id})
			},
			func(fs int32, size int64, tm trace.Time) {
				next = append(next, serverOp{time: tm, kind: opPurge, fs: fs, size: size})
			})
		ops = next
	}
	store := cfg.Tiers[len(cfg.Tiers)-1]
	tr := TierResult{Name: store.Name, Size: store.Size}
	wear := make([]int64, merged.nBlocks())
	for _, op := range ops {
		switch op.kind {
		case opRead:
			tr.Reads++
		case opWrite:
			tr.Writes++
			wear[op.id]++
		}
	}
	tr.BusyTime = store.ReadLatency*trace.Time(tr.Reads) + store.WriteLatency*trace.Time(tr.Writes)
	tallyWear(&tr, wear, store.EnduranceWrites)
	return tr
}

// The backing store counts its reads, writes and wear in place, as the
// cache tier above emits them; the result must equal counting that
// tier's traffic as an op list, for stacks of two, three and four tiers.
func TestBackingStoreCountsInPlace(t *testing.T) {
	tapes := hierarchyMachines(t)
	disk := Tier{Name: "disk", ReadLatency: 10 * trace.Millisecond,
		WriteLatency: 10 * trace.Millisecond, EnduranceWrites: 50}
	stacks := map[string][]Tier{
		"two": {
			{Name: "ram", Size: 16 * 4096, Write: DelayedWrite},
			disk,
		},
		"three": {
			{Name: "ram", Size: 16 * 4096, Write: WriteThrough},
			{Name: "flash", Size: 64 * 4096, Replacement: ARC, Seed: 1, Write: DelayedWrite},
			disk,
		},
		"four": {
			{Name: "ram", Size: 16 * 4096, Write: WriteThrough},
			{Name: "flash", Size: 48 * 4096, Write: FlushBack, FlushInterval: 30 * trace.Second},
			{Name: "ssd", Size: 96 * 4096, Replacement: TwoQ, Write: DelayedWrite},
			disk,
		},
	}
	for name, tiers := range stacks {
		cfg := HierarchyConfig{BlockSize: 4096, Tiers: tiers}
		h := mustHierarchy(t, tapes, cfg)
		got, want := h.Tiers[len(tiers)-1], storeOracle(t, tapes, cfg)
		if want.Writes == 0 || want.Reads == 0 {
			t.Fatalf("%s: oracle store saw %d reads, %d writes; trace too weak", name, want.Reads, want.Writes)
		}
		if got != want {
			t.Errorf("%s tiers: in-place store\n%+v\nop-list count\n%+v", name, got, want)
		}
	}
}
