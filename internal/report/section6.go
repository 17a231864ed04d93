package report

import (
	"fmt"
	"io"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/fault"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// The Section-6 experiments that fsreport and fscachesim both run: each
// function replays a transfer tape through its sweep and renders the
// tables, so the two commands print the same wording. When reg is
// enabled the sweep's results are published into it; a nil reg
// publishes nothing. Each returns the first render error.

// PolicyZoo renders the policy-zoo comparison: the Figure 5, 6 and 7
// experiments re-run with one column per replacement policy, seeding
// the randomized ones with seed. The lru column of the first table
// reproduces Table VI's delayed-write column cell for cell.
func PolicyZoo(w io.Writer, tape *xfer.Tape, seed int64, reg *obs.Registry) error {
	const zooCache = 2 << 20
	sizes := cachesim.PaperCacheSizes()
	res, err := cachesim.ZooSweepTape(tape, 4096, sizes, seed)
	if err != nil {
		return err
	}
	for _, row := range res {
		cachesim.PublishResults(reg, "sim", row...)
	}
	if err := ZooTable(sizes, res).Render(w); err != nil {
		return err
	}
	blocks, err := cachesim.ZooBlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), zooCache, seed)
	if err != nil {
		return err
	}
	if err := zooBlockTable(cachesim.PaperBlockSizes(), zooCache, blocks).Render(w); err != nil {
		return err
	}
	paging, err := cachesim.ZooPagingSweepTape(tape, 4096, sizes, seed)
	if err != nil {
		return err
	}
	return zooPagingTable(sizes, paging).Render(w)
}

// ReplacementAblation renders ablation A1: the paper's LRU against
// Clock, FIFO and Random at a 2-Mbyte delayed-write cache.
func ReplacementAblation(w io.Writer, tape *xfer.Tape, reg *obs.Registry) error {
	res, err := cachesim.ReplacementSweepTape(tape, 4096, 2<<20, 1)
	if err != nil {
		return err
	}
	t := &Table{
		Title:  "Ablation A1. Replacement policy (2-Mbyte delayed-write cache, 4-kbyte blocks).",
		Header: []string{"Policy", "Disk I/Os", "Miss Ratio"},
		Note:   "The paper fixes LRU without comparison; this quantifies the choice.",
	}
	for _, rp := range []cachesim.Replacement{cachesim.LRU, cachesim.Clock, cachesim.FIFO, cachesim.Random} {
		r := res[rp]
		cachesim.PublishResults(reg, "sim", r)
		t.AddRow(rp.String(), Count(r.DiskIOs()), Pct(r.MissRatio()))
	}
	return t.Render(w)
}

// FlushAblation renders ablation A2: the flush-back interval swept from
// one second to an hour at a 2-Mbyte cache.
func FlushAblation(w io.Writer, tape *xfer.Tape, reg *obs.Registry) error {
	intervals := []trace.Time{
		1 * trace.Second, 5 * trace.Second, 30 * trace.Second,
		trace.Minute, 5 * trace.Minute, 15 * trace.Minute, trace.Hour,
	}
	res, err := cachesim.FlushIntervalSweepTape(tape, 4096, 2<<20, intervals)
	if err != nil {
		return err
	}
	cachesim.PublishResults(reg, "sim", res...)
	t := &Table{
		Title:  "Ablation A2. Flush-back interval (2-Mbyte cache, 4-kbyte blocks).",
		Header: []string{"Interval", "Disk Writes", "Miss Ratio"},
		Note:   "Bridges the paper's two flush points toward its write-through and delayed-write limits.",
	}
	for i, iv := range intervals {
		t.AddRow(iv.String(), Count(res[i].DiskWrites), Pct(res[i].MissRatio()))
	}
	return t.Render(w)
}

// CrashLoss renders the reliability side of the write-policy trade:
// Table VI prices each policy in disk traffic, this table prices it in
// the data a crash would destroy. n crash points are sampled across the
// trace and all of them replay in one pass per policy (internal/fault).
func CrashLoss(w io.Writer, tape *xfer.Tape, blockSize, cacheSize int64, n int, reg *obs.Registry) error {
	policies := cachesim.PaperPolicies()
	points := fault.Points(tape, n)
	reps, err := fault.PolicySweepTape(tape, blockSize, cacheSize, policies, points)
	if err != nil {
		return err
	}
	fault.PublishReports(reg, "crash", reps)
	t := &Table{
		Title: fmt.Sprintf("Reliability. Data lost to a crash, by write policy (%s cache, %s blocks, %d sampled crash points).",
			Size(cacheSize), Size(blockSize), len(points)),
		Header: []string{"Policy", "Vulnerable", "Mean Loss", "Worst Loss", "Oldest Loss", "Disk Writes"},
		Note: "The paper adopts the 30-second flush-back because it keeps write traffic " +
			"near delayed-write levels while a crash loses at most one interval of dirty " +
			"data; write-through pays maximal disk writes for zero loss. \"Vulnerable\" is " +
			"the fraction of crash points that lose anything; \"Oldest Loss\" is how long " +
			"the most stale lost block had gone unwritten.",
	}
	for j, p := range policies {
		r := reps[j]
		t.AddRow(p.Name,
			Pct(r.VulnerableFraction()),
			Size(int64(r.MeanLossBytes())),
			Size(r.MaxLoss().Bytes),
			r.MaxAge().String(),
			Count(r.Result.DiskWrites),
		)
	}
	return t.Render(w)
}
