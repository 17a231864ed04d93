package xfer

import "bsdtrace/internal/obs"

// transferSizeBuckets spans the transfer-size range the workload
// produces: a few hundred bytes (the administrative-file pokes) up to
// the megabyte-scale CAD listings. 256 B · 4ⁿ covers 256 B–64 MB in 10
// buckets.
var transferSizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// PublishMetrics copies the tape's closing shape into the registry
// under prefix: op and transfer counts, outstanding opens, total bytes
// moved, and a transfer-size histogram. Every value is a deterministic
// function of the source trace, so tape metrics belong to the
// manifest's canonical (golden-diffed) surface. No-op when reg is nil
// or disabled.
func (t *Tape) PublishMetrics(reg *obs.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.Counter(prefix + ".ops").Set(int64(len(t.Ops)))
	reg.Counter(prefix + ".transfers").Set(int64(len(t.Transfers)))
	reg.Counter(prefix + ".unclosed").Set(int64(t.Unclosed))
	h := reg.Histogram(prefix+".transfer_bytes", transferSizeBuckets)
	var bytes int64
	for i := range t.Transfers {
		h.Record(float64(t.Transfers[i].Length))
		bytes += t.Transfers[i].Length
	}
	reg.Counter(prefix + ".bytes").Set(bytes)
}
