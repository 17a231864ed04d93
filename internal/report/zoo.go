package report

// The policy-zoo tables: the Figure 5-7 comparisons re-rendered with
// one column per replacement policy. The first column is always LRU,
// the paper's own policy, so the zoo tables line up with Table VI /
// Table VII values cell for cell.

import (
	"bsdtrace/internal/cachesim"
)

// zooHeader builds the shared header row: a label column followed by
// one column per policy in AllReplacements order.
func zooHeader(label string) []string {
	h := []string{label}
	for _, rp := range cachesim.AllReplacements() {
		h = append(h, rp.String())
	}
	return h
}

// ZooTable is the Figure 5 comparison across the zoo: miss ratio vs.
// cache size under delayed-write, one column per policy. res is indexed
// [cacheSize][policy] (cachesim.ZooSweepTape).
func ZooTable(cacheSizes []int64, res [][]*cachesim.Result) *Table {
	t := &Table{
		Title:  "Policy zoo: miss ratio vs. cache size (4-kbyte blocks, delayed-write, trace A5).",
		Header: zooHeader("Cache Size"),
		Note: "The Figure 5 experiment across every replacement policy. The lru column " +
			"is the paper's configuration and matches Table VI's delayed-write column; " +
			"the adaptive policies (arc, 2q, lirs, tinylfu) earn their keep on " +
			"scan-heavy traces, which this workload's whole-file reads approximate.",
	}
	for i, cs := range cacheSizes {
		label := Size(cs)
		if cs == cachesim.UnixCacheSize {
			label += " (UNIX)"
		}
		cells := []string{label}
		for _, r := range res[i] {
			cells = append(cells, Pct(r.MissRatio()))
		}
		t.AddRow(cells...)
	}
	return t
}

// zooBlockTable is the Figure 6 comparison across the zoo: disk I/Os
// vs. block size at one cache size under delayed-write. res is indexed
// [blockSize][policy] (cachesim.ZooBlockSizeSweepTape).
func zooBlockTable(blockSizes []int64, cacheSize int64, res [][]*cachesim.Result) *Table {
	t := &Table{
		Title:  "Policy zoo: disk I/Os vs. block size (" + Size(cacheSize) + " delayed-write cache, trace A5).",
		Header: zooHeader("Block Size"),
		Note: "The Figure 6 experiment across every replacement policy: total disk I/O " +
			"operations replaying the trace at each block size.",
	}
	for i, bs := range blockSizes {
		cells := []string{Size(bs)}
		for _, r := range res[i] {
			cells = append(cells, Count(r.DiskIOs()))
		}
		t.AddRow(cells...)
	}
	return t
}

// zooPagingTable is the Figure 7 comparison across the zoo: miss ratio
// vs. cache size with program page-in simulated. res is indexed
// [cacheSize][policy] (cachesim.ZooPagingSweepTape).
func zooPagingTable(cacheSizes []int64, res [][]*cachesim.Result) *Table {
	t := &Table{
		Title:  "Policy zoo: miss ratio with paging simulated (4-kbyte blocks, delayed-write, trace A5).",
		Header: zooHeader("Cache Size"),
		Note: "The Figure 7 experiment across every replacement policy: exec events add " +
			"synthetic page-in reads of the program text before each run.",
	}
	for i, cs := range cacheSizes {
		label := Size(cs)
		if cs == cachesim.UnixCacheSize {
			label += " (UNIX)"
		}
		cells := []string{label}
		for _, r := range res[i] {
			cells = append(cells, Pct(r.MissRatio()))
		}
		t.AddRow(cells...)
	}
	return t
}
