package workload

import (
	"fmt"

	"bsdtrace/internal/trace"
)

// Sharded generation: the scaled user population splits into disjoint
// sub-populations, each simulated as its own machine (own kernel, own
// file system, own daemons — a fleet), each on its own goroutine. The
// shard streams merge through trace.MergeProducers into one time-ordered
// trace with the standard identifier remapping, so the merged fleet trace
// obeys the same contract as a merge of several machines' traces.
//
// Determinism contract: the merged stream is a pure function of (Config,
// Shards). Shard s seeds its random source from shardSeed(Seed, s), the
// merge orders events by (time, shard index), and the merge can only emit
// after it has the head event of every live shard — goroutine scheduling
// can change who waits for whom, never what comes out.

// shardSeed derives the random seed of shard s. Shard 0 keeps the
// configured seed, so a single-shard run is byte-identical to an unsharded
// one; the rest mix the shard index in with a splitmix64-style odd
// constant so sibling shards get decorrelated streams.
func shardSeed(seed int64, s int) int64 {
	if s == 0 {
		return seed
	}
	x := uint64(seed) + uint64(s)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// splitProfile deals prof's user classes across n shards: shard i gets
// count/n users of each class plus one of the remainder while it lasts.
// Every shard runs its own status daemons — each shard is one machine of
// the fleet, and the network status daemons run on every machine.
func splitProfile(prof Profile, n int) []Profile {
	share := func(count, i int) int {
		s := count / n
		if i < count%n {
			s++
		}
		return s
	}
	out := make([]Profile, n)
	for i := range out {
		p := prof
		p.Developers = share(prof.Developers, i)
		p.Office = share(prof.Office, i)
		p.CAD = share(prof.CAD, i)
		out[i] = p
	}
	return out
}

// generateSharded fans the population out over cfg.Shards concurrent
// machines and merges their streams into sink in deterministic time
// order. The returned Result aggregates the fleet: kernel stats are
// summed and the static size scans concatenate in shard order.
func generateSharded(cfg Config, sink Sink) (*Result, error) {
	n := cfg.Shards
	if cfg.Meta != nil {
		return nil, fmt.Errorf("workload: Meta hook requires Shards <= 1 (each shard runs its own kernel)")
	}
	full := scaledProfile(cfg)
	parts := splitProfile(full, n)

	results := make([]*Result, n)
	producers := make([]func(func(trace.Event) error) error, n)
	for i := range producers {
		shardCfg := cfg
		shardCfg.Shards = 0
		shardCfg.Seed = shardSeed(cfg.Seed, i)
		producers[i] = func(emit func(trace.Event) error) (err error) {
			results[i], err = generateProfile(shardCfg, parts[i], emit)
			return err
		}
	}
	if sink == nil {
		sink = func(trace.Event) error { return nil }
	}
	if err := trace.MergeProducers(sink, producers...); err != nil {
		return nil, err
	}

	out := &Result{Profile: full}
	files := 0
	for _, r := range results {
		files += len(r.StaticSizes)
	}
	out.StaticSizes = make([]int64, 0, files)
	for _, r := range results {
		ks := r.KernelStats
		out.KernelStats.Opens += ks.Opens
		out.KernelStats.Creates += ks.Creates
		out.KernelStats.Closes += ks.Closes
		out.KernelStats.Seeks += ks.Seeks
		out.KernelStats.Unlinks += ks.Unlinks
		out.KernelStats.Truncates += ks.Truncates
		out.KernelStats.Execs += ks.Execs
		out.KernelStats.BytesRead += ks.BytesRead
		out.KernelStats.BytesWritten += ks.BytesWritten
		out.StaticSizes = append(out.StaticSizes, r.StaticSizes...)
	}
	return out, nil
}
