package workload

import (
	"reflect"
	"testing"

	"bsdtrace/internal/namei"
	"bsdtrace/internal/trace"
)

func shardCfg(shards int) Config {
	return Config{Profile: "A5", Seed: 42, Duration: 20 * trace.Minute, Shards: shards}
}

// TestShardSeedIdentity: shard 0 keeps the configured seed, so a
// one-shard generation is bit-for-bit the unsharded generation; other
// shards get well-mixed distinct seeds.
func TestShardSeedIdentity(t *testing.T) {
	if got := shardSeed(42, 0); got != 42 {
		t.Fatalf("shardSeed(42, 0) = %d, want 42", got)
	}
	seen := map[int64]bool{42: true}
	for s := 1; s < 64; s++ {
		v := shardSeed(42, s)
		if seen[v] {
			t.Fatalf("shardSeed(42, %d) = %d collides", s, v)
		}
		seen[v] = true
	}
}

// TestShardsOneMatchesUnsharded is the determinism contract's anchor:
// Shards of 0 and 1 must not change the trace at all.
func TestShardsOneMatchesUnsharded(t *testing.T) {
	base, err := Generate(shardCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Generate(shardCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Events, one.Events) {
		t.Fatalf("Shards=1 changed the trace: %d vs %d events", len(base.Events), len(one.Events))
	}
	if base.KernelStats != one.KernelStats {
		t.Fatalf("Shards=1 changed kernel stats: %+v vs %+v", base.KernelStats, one.KernelStats)
	}
}

// TestShardDeterminism: the same seed and shard count produce the same
// merged trace, run after run, regardless of goroutine scheduling.
func TestShardDeterminism(t *testing.T) {
	first, err := Generate(shardCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Generate(shardCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Events, second.Events) {
		t.Fatalf("sharded generation not deterministic: %d vs %d events",
			len(first.Events), len(second.Events))
	}
	if first.KernelStats != second.KernelStats {
		t.Fatalf("kernel stats not deterministic: %+v vs %+v", first.KernelStats, second.KernelStats)
	}
	if !reflect.DeepEqual(first.StaticSizes, second.StaticSizes) {
		t.Fatalf("static scan not deterministic")
	}
}

// TestShardedTraceValidates: a sharded fleet trace is time-ordered and
// structurally valid — the merge's remapping keeps every shard's
// open/close pairing intact.
func TestShardedTraceValidates(t *testing.T) {
	res, err := Generate(shardCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("sharded generation produced no events")
	}
	errs := validate(res.Events)
	for _, e := range errs {
		t.Errorf("validator: %v", e)
	}
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Time < res.Events[i-1].Time {
			t.Fatalf("event %d out of order", i)
		}
	}
}

// TestShardedStatsSumShards: the fleet's kernel stats are the sum of its
// shards' traffic — the merged event stream must account for every open
// and byte the shard kernels performed.
func TestShardedStatsSumShards(t *testing.T) {
	res, err := Generate(shardCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counts
	for _, e := range res.Events {
		c.Add(e)
	}
	if got := res.KernelStats.Opens + res.KernelStats.Creates; got != c.ByKind[trace.KindOpen]+c.ByKind[trace.KindCreate] {
		t.Errorf("summed stats opens+creates = %d, trace has %d",
			got, c.ByKind[trace.KindOpen]+c.ByKind[trace.KindCreate])
	}
	if res.KernelStats.BytesRead == 0 || res.KernelStats.BytesWritten == 0 {
		t.Errorf("summed stats lost transfer bytes: %+v", res.KernelStats)
	}
}

// TestShardedPopulationGrows: sharding partitions the user population; it
// must not shrink it. With UserScale the per-shard populations stay
// disjoint and the fleet trace reflects the whole scaled population.
func TestShardedPopulationGrows(t *testing.T) {
	cfg := shardCfg(4)
	cfg.UserScale = 4
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[trace.UserID]bool)
	for _, e := range res.Events {
		users[e.User] = true
	}
	base, err := Generate(shardCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	baseUsers := make(map[trace.UserID]bool)
	for _, e := range base.Events {
		baseUsers[e.User] = true
	}
	if len(users) < 2*len(baseUsers) {
		t.Errorf("4x sharded fleet has %d active users, unscaled trace has %d", len(users), len(baseUsers))
	}
}

// TestShardsRejectMeta: the metadata hook observes one kernel; a sharded
// fleet runs several, so the combination must be refused, not silently
// miscounted.
func TestShardsRejectMeta(t *testing.T) {
	cfg := shardCfg(2)
	cfg.Meta = namei.New(namei.Config{NameEntries: 40, InodeEntries: 20, DirBlocks: 8})
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Generate with Meta and Shards>1 succeeded, want error")
	}
}

// TestNegativeShardsRejected.
func TestNegativeShardsRejected(t *testing.T) {
	cfg := shardCfg(-1)
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Generate with Shards=-1 succeeded, want error")
	}
}

// TestGenerateStreamMatchesGenerate: the sink path and the collecting
// path see the same events in the same order.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	collected, err := Generate(shardCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []trace.Event
	res, err := GenerateStream(shardCfg(2), func(e trace.Event) error {
		streamed = append(streamed, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collected.Events, streamed) {
		t.Fatalf("GenerateStream diverges from Generate")
	}
	if res.Events != nil {
		t.Errorf("GenerateStream materialized %d events", len(res.Events))
	}
	if collected.KernelStats != res.KernelStats {
		t.Errorf("kernel stats differ between paths")
	}
}
