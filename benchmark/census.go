package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/ffs"
	"bsdtrace/internal/namei"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// The layer census is the traced run. One pass generates the workload's
// A5 machine in-process, exactly as its CLI would, then runs the first
// prefixCap events through each layer's public entry points one layer at
// a time, each call wrapped in a span. Layers run one after another on
// one goroutine, so a span's time belongs to its layer alone; the only
// interleaved work is generation and its sink, which nest.
const (
	// prefixCap bounds the events the layers after generation see, so a
	// pass stays a few seconds at any workload scale; per-event costs do
	// not depend on it.
	prefixCap = 1 << 17
	// batchSize is the events per batch span, which keeps the timing
	// overhead amortised.
	batchSize = 256
	// daemonInterval is fstraced's default records per checkpoint.
	daemonInterval = 1024
)

// layerMetrics are the per-layer metrics in the order printed, with their
// units.
var layerMetrics = []struct{ name, unit string }{
	{"workload.self_s", "s"},
	{"workload.ns_per_event", "ns"},
	{"workload.allocs_per_event", "allocs"},
	{"workload.events", "count"},
	{"kernel.syscalls", "count"},
	{"kernel.syscalls_per_event", "ratio"},
	{"kernel.resolves", "count"},
	{"trace.v1_decode_ns_per_event", "ns"},
	{"trace.v2_encode_ns_per_event", "ns"},
	{"trace.v2_decode_ns_per_event", "ns"},
	{"trace.v1_bytes_per_event", "B"},
	{"trace.v2_bytes_per_event", "B"},
	{"trace.merge_ns_per_event", "ns"},
	{"trace.validate_ns_per_event", "ns"},
	{"trace.fanout_wait_s", "s"},
	{"analyzer.ns_per_event", "ns"},
	{"analyzer.allocs_per_event", "allocs"},
	{"analyzer.finish_s", "s"},
	{"analyzer.state_bytes", "B"},
	{"analyzer.restore_s", "s"},
	{"analyzer.replay_s", "s"},
	{"xfer.ns_per_event", "ns"},
	{"xfer.finish_s", "s"},
	{"xfer.transfers", "count"},
	{"cachesim.policy_sweep_s", "s"},
	{"cachesim.block_sweep_s", "s"},
	{"cachesim.paging_sweep_s", "s"},
	{"cachesim.zoo_sweep_s", "s"},
	{"cachesim.ablation_sweep_s", "s"},
	{"cachesim.accesses", "count"},
	{"cachesim.ns_per_access", "ns"},
	{"cachesim.disk_ios", "count"},
	{"ffs.waste_sweep_s", "s"},
	{"namei.metadata_s", "s"},
	{"namei.name_hit_ratio", "ratio"},
	{"report.render_s", "s"},
	{"host.calib_s", "s"},
	{"host.tracing_overhead", "ratio"},
}

// traceWorkload alternates untraced and traced census passes until the
// measuring time is spent. Per-layer metrics are medians over the traced
// passes; host.tracing_overhead is the traced passes' median wall time
// over the untraced ones'. It also returns the last traced pass's spans.
func traceWorkload(r *runner) (map[string]stat, []span) {
	cfg := r.spec.census
	cfg.Seed = r.opts.seed
	cfg.Duration = trace.Time(r.simDuration().Milliseconds())
	samples := map[string][]float64{}
	var walls [2][]float64 // untraced, traced
	var digest *[sha256.Size]byte
	var lastSpans []span
	start := time.Now()
	for n := 1; n <= maxReps; n++ {
		for mode := range walls {
			var rec *recorder
			if mode == 1 {
				rec = newRecorder()
			}
			runtime.GC()
			c := &census{rec: rec, seed: r.opts.seed, counts: map[string]float64{}, allocs: map[string]float64{}}
			t := time.Now()
			err := c.run(cfg)
			wall := time.Since(t).Seconds()
			if err == nil && digest != nil && *digest != c.digest {
				err = errors.New("census: outputs differ from the first pass's")
			}
			r.tally.record(err)
			fmt.Fprintf(r.log, "%s census pass %d (traced=%v): %.3fs\n", r.spec.name, n, mode == 1, wall)
			if err != nil {
				fmt.Fprintf(r.log, "  FAILED: %v\n", err)
				continue
			}
			if digest == nil {
				digest = &c.digest
			}
			walls[mode] = append(walls[mode], wall)
			if rec != nil {
				for k, v := range c.metrics() {
					samples[k] = append(samples[k], v)
				}
				samples["host.calib_s"] = append(samples["host.calib_s"], calibrate())
				lastSpans = rec.spans
			}
		}
		if el := time.Since(start).Seconds(); el+el/float64(n) > r.opts.seconds {
			break
		}
	}
	out := map[string]stat{}
	if len(walls[0]) > 0 && len(walls[1]) > 0 {
		plain, traced := summarize("s", walls[0]), summarize("s", walls[1])
		samples["host.tracing_overhead"] = []float64{traced.Value / plain.Value}
	}
	for _, m := range layerMetrics {
		if xs := samples[m.name]; len(xs) > 0 {
			out[m.name] = summarize(m.unit, xs)
		}
	}
	return out, lastSpans
}

// census is one pass. counts holds the deterministic counts the pass
// measured and allocs its allocation counts; the span times come from
// rec, which is nil on an untraced pass.
type census struct {
	rec    *recorder
	seed   int64
	prefix int // events the layers after generation saw
	counts map[string]float64
	allocs map[string]float64
	// digest fingerprints the pass's deterministic outputs; every pass
	// of a run must produce the same one.
	digest [sha256.Size]byte
}

func (c *census) run(cfg workload.Config) error {
	root := c.rec.begin("census")
	defer c.rec.end(root, 0)
	events, err := c.generate(cfg)
	if err != nil {
		return err
	}
	c.prefix = len(events)
	if err := c.metadata(cfg); err != nil {
		return err
	}
	if err := c.codecs(events); err != nil {
		return err
	}
	if err := c.validateAndMerge(events); err != nil {
		return err
	}
	if err := c.fanout(events); err != nil {
		return err
	}
	an, err := c.analyze(events)
	if err != nil {
		return err
	}
	tape, err := c.tape(events)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := c.sweeps(tape, an, &out); err != nil {
		return err
	}
	id := c.rec.begin("ffs.waste_sweep")
	rows, err := ffs.WasteSweep(events, []int64{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10})
	c.rec.end(id, int64(len(events)))
	if err != nil {
		return fmt.Errorf("ffs: %v", err)
	}
	fmt.Fprintf(&out, "%v\n%v\n", rows, c.counts)
	c.digest = sha256.Sum256(out.Bytes())
	return nil
}

// generate streams the workload's A5 machine and keeps its first
// prefixCap events. The sink delivers batches of batchSize, each in a
// child span, so generation's self time excludes the sink.
func (c *census) generate(cfg workload.Config) ([]trace.Event, error) {
	events := make([]trace.Event, 0, prefixCap)
	batch := make([]trace.Event, 0, batchSize)
	var total int64
	flush := func() {
		id := c.rec.begin("workload.sink")
		if room := prefixCap - len(events); room > 0 {
			events = append(events, batch[:min(room, len(batch))]...)
		}
		c.rec.end(id, int64(len(batch)))
		batch = batch[:0]
	}
	a0 := heapAllocs()
	id := c.rec.begin("workload.generate")
	res, err := workload.GenerateStream(cfg, func(e trace.Event) error {
		total++
		if batch = append(batch, e); len(batch) == batchSize {
			flush()
		}
		return nil
	})
	flush()
	c.rec.end(id, total)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	if total == 0 {
		return nil, errors.New("workload: no events")
	}
	k := res.KernelStats
	syscalls := k.Opens + k.Creates + k.Closes + k.Seeks + k.Unlinks + k.Truncates + k.Execs
	c.counts["workload.events"] = float64(total)
	c.allocs["workload"] = float64(heapAllocs() - a0)
	c.counts["kernel.syscalls"] = float64(syscalls)
	return events, nil
}

// metadata regenerates the machine unsharded (the kernel's metadata
// hook needs a single kernel) with the namei caches attached at the
// middle size fsreport's metadata table uses; the simulator counts the
// kernel's pathname resolutions.
func (c *census) metadata(cfg workload.Config) error {
	sim := namei.New(namei.Config{NameEntries: 120, InodeEntries: 60, DirBlocks: 20})
	cfg.Shards, cfg.Meta = 1, sim
	id := c.rec.begin("namei.metadata")
	_, err := workload.GenerateStream(cfg, nil)
	c.rec.end(id, sim.Stats.Resolves)
	if err != nil {
		return fmt.Errorf("namei: %v", err)
	}
	if sim.Stats.Resolves == 0 {
		return errors.New("namei: no pathname resolutions")
	}
	c.counts["kernel.resolves"] = float64(sim.Stats.Resolves)
	c.counts["namei.name_hit_ratio"] = sim.Stats.NameHitRatio()
	return nil
}

// codecs encodes the events in both wire formats and decodes them back;
// each decode must return the events exactly.
func (c *census) codecs(events []trace.Event) error {
	decoded := make([]trace.Event, len(events))
	for _, f := range []struct {
		name string
		w    func(io.Writer) *trace.Writer
	}{
		{"v1", trace.NewWriter},
		{"v2", func(w io.Writer) *trace.Writer { return trace.NewWriterV2(w, daemonInterval) }},
	} {
		var buf bytes.Buffer
		id := c.rec.begin("trace." + f.name + "_encode")
		w := f.w(&buf)
		for _, e := range events {
			w.Write(e)
		}
		err := w.Flush()
		c.rec.end(id, int64(len(events)))
		if err != nil {
			return fmt.Errorf("trace: %s encode: %v", f.name, err)
		}
		c.counts["trace."+f.name+"_bytes"] = float64(buf.Len())

		id = c.rec.begin("trace." + f.name + "_decode")
		n, err := readAll(&buf, decoded)
		c.rec.end(id, int64(n))
		if err != nil {
			return fmt.Errorf("trace: %s decode: %v", f.name, err)
		}
		if n != len(events) {
			return fmt.Errorf("trace: %s decoded %d of %d events", f.name, n, len(events))
		}
		for i, e := range events {
			if decoded[i] != wireForm(e) {
				return fmt.Errorf("trace: %s round trip changed event %d", f.name, i)
			}
		}
	}
	return nil
}

// readAll decodes a stream into dst and returns the event count.
func readAll(r io.Reader, dst []trace.Event) (int, error) {
	rdr, err := trace.NewReader(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if n == len(dst) {
			if _, err := rdr.Next(); err != io.EOF {
				return n, fmt.Errorf("more events than written")
			}
			return n, nil
		}
		m, err := rdr.NextBatch(dst[n:min(n+batchSize, len(dst))])
		n += m
		if m == 0 {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
	}
}

// validateAndMerge runs the validator over the events, then the k-way
// merge over three strands of them, the server leg's fan-in.
func (c *census) validateAndMerge(events []trace.Event) error {
	id := c.rec.begin("trace.validate")
	v := trace.NewValidator(16)
	for _, e := range events {
		v.Check(e)
	}
	v.Finish()
	c.rec.end(id, int64(len(events)))
	if errs := v.Errs(); len(errs) > 0 {
		return fmt.Errorf("trace: %d validation errors, first %v", len(errs), errs[0])
	}

	const strands = 3
	split := make([][]trace.Event, strands)
	for i, e := range events {
		split[i%strands] = append(split[i%strands], e)
	}
	srcs := make([]trace.Source, strands)
	for i := range split {
		srcs[i] = trace.NewSliceSource(split[i])
	}
	buf := make([]trace.Event, batchSize)
	var n int64
	last := trace.Time(-1)
	ordered := true
	id = c.rec.begin("trace.merge")
	m := trace.NewMergeSource(srcs...)
	for {
		k, err := m.NextBatch(buf)
		for _, e := range buf[:k] {
			ordered = ordered && e.Time >= last
			last = e.Time
		}
		n += int64(k)
		if k == 0 {
			if err != io.EOF {
				c.rec.end(id, n)
				return fmt.Errorf("trace: merge: %v", err)
			}
			break
		}
	}
	c.rec.end(id, n)
	if n != int64(len(events)) || !ordered {
		return fmt.Errorf("trace: merge emitted %d of %d events, ordered=%v", n, len(events), ordered)
	}
	return nil
}

// fanout tees the events, as fstraced does, to a recorder that encodes
// v2 and to an analysis subscriber (analyzer and validator). The
// producer's spans cover its calls to Fanout.Write, so their total is
// the time generation would spend handing events off or blocked.
func (c *census) fanout(events []trace.Event) error {
	f := trace.NewFanout(2)
	var wg sync.WaitGroup
	var recorded, analyzed int64
	var encoded countingWriter
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sub := f.Source(0)
		defer sub.Cancel()
		w := trace.NewWriterV2(&encoded, daemonInterval)
		errs[0] = drain(sub, func(e trace.Event) { w.Write(e); recorded++ })
		if errs[0] == nil {
			errs[0] = w.Flush()
		}
	}()
	go func() {
		defer wg.Done()
		sub := f.Source(1)
		defer sub.Cancel()
		s := analyzer.NewStream(analyzer.Options{})
		v := trace.NewValidator(16)
		errs[1] = drain(sub, func(e trace.Event) { s.Feed(e); v.Check(e); analyzed++ })
		s.Finish()
	}()
	id := c.rec.begin("trace.fanout")
	var werr error
	for i := 0; i < len(events) && werr == nil; i += batchSize {
		b := c.rec.begin("trace.fanout_write")
		for _, e := range events[i:min(i+batchSize, len(events))] {
			if werr = f.Write(e); werr != nil {
				break
			}
		}
		c.rec.end(b, int64(min(batchSize, len(events)-i)))
	}
	f.Close(werr)
	wg.Wait()
	c.rec.end(id, int64(len(events)))
	if err := errors.Join(append(errs, werr)...); err != nil {
		return fmt.Errorf("trace: fanout: %v", err)
	}
	if recorded != int64(len(events)) || analyzed != recorded {
		return fmt.Errorf("trace: fanout delivered %d and %d of %d events", recorded, analyzed, len(events))
	}
	if encoded.n != int64(c.counts["trace.v2_bytes"]) {
		return fmt.Errorf("trace: fanout recorder wrote %d bytes, direct v2 encoding %v", encoded.n, c.counts["trace.v2_bytes"])
	}
	return nil
}

func drain(src trace.Source, each func(trace.Event)) error {
	buf := make([]trace.Event, batchSize)
	for {
		n, err := trace.ReadBatch(src, buf)
		for _, e := range buf[:n] {
			each(e)
		}
		if n == 0 {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// analyze feeds the analyzer, then prices the resume decision at the
// middle of the events: replaying the prefix into a fresh stream against
// restoring the stream from its serialized state. The restored stream,
// fed the rest, must finish with the same analysis as the direct one.
func (c *census) analyze(events []trace.Event) (*analyzer.Analysis, error) {
	opts := analyzer.Options{}
	a0 := heapAllocs()
	id := c.rec.begin("analyzer.feed")
	s := analyzer.NewStream(opts)
	for _, e := range events {
		s.Feed(e)
	}
	c.rec.end(id, int64(len(events)))
	c.allocs["analyzer"] = float64(heapAllocs() - a0)
	id = c.rec.begin("analyzer.finish")
	an := s.Finish()
	c.rec.end(id, 1)

	half := len(events) / 2
	id = c.rec.begin("analyzer.replay")
	replayed := analyzer.NewStream(opts)
	for _, e := range events[:half] {
		replayed.Feed(e)
	}
	c.rec.end(id, int64(half))
	id = c.rec.begin("analyzer.state")
	state, err := replayed.MarshalBinary()
	c.rec.end(id, int64(len(state)))
	if err != nil {
		return nil, fmt.Errorf("analyzer: state: %v", err)
	}
	id = c.rec.begin("analyzer.restore")
	restored, err := analyzer.RestoreStream(state, opts)
	c.rec.end(id, int64(len(state)))
	if err != nil {
		return nil, fmt.Errorf("analyzer: restore: %v", err)
	}
	c.counts["analyzer.state_bytes"] = float64(len(state))
	for _, e := range events[half:] {
		restored.Feed(e)
	}
	var direct, resumed bytes.Buffer
	renderAnalysis(&direct, an)
	renderAnalysis(&resumed, restored.Finish())
	if !bytes.Equal(direct.Bytes(), resumed.Bytes()) {
		return nil, errors.New("analyzer: restored stream finished with a different analysis")
	}
	return an, nil
}

// renderAnalysis writes the Section-5 tables and figures of one trace.
func renderAnalysis(w io.Writer, an *analyzer.Analysis) {
	tr := report.Traces{Names: []string{"A5"}, Analyses: []*analyzer.Analysis{an}}
	report.TableIII(tr).Render(w)
	report.TableIV(tr).Render(w)
	report.TableV(tr).Render(w)
	report.EventIntervalTable(tr).Render(w)
	report.SharingTable(tr).Render(w)
	for _, ch := range report.Figure1(tr) {
		ch.Render(w)
	}
	for _, ch := range report.Figure2(tr) {
		ch.Render(w)
	}
	report.Figure3(tr).Render(w)
	for _, ch := range report.Figure4(tr) {
		ch.Render(w)
	}
}

// tape builds the transfer tape the cache simulations replay.
func (c *census) tape(events []trace.Event) (*xfer.Tape, error) {
	id := c.rec.begin("xfer.build")
	tb := xfer.NewTapeBuilder()
	for _, e := range events {
		tb.Add(e)
	}
	c.rec.end(id, int64(len(events)))
	id = c.rec.begin("xfer.finish")
	tape, err := tb.Finish()
	c.rec.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("xfer: %v", err)
	}
	c.counts["xfer.transfers"] = float64(len(tape.Transfers))
	return tape, nil
}

// sweeps runs the cache sweeps fsreport and fscachesim run, then renders
// their tables and the analysis into out. The zoo's LRU column must
// equal the policy sweep's delayed-write column, as the goldens pin.
func (c *census) sweeps(tape *xfer.Tape, an *analyzer.Analysis, out *bytes.Buffer) error {
	sizes := cachesim.PaperCacheSizes()
	policies := cachesim.PaperPolicies()
	var accesses, diskIOs int64
	tally := func(rs ...*cachesim.Result) {
		for _, r := range rs {
			accesses += r.LogicalAccesses
			diskIOs += r.DiskIOs()
		}
	}

	id := c.rec.begin("cachesim.policy_sweep")
	policy, err := cachesim.PolicySweepTape(tape, 4096, sizes, policies)
	c.rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("cachesim: policy sweep: %v", err)
	}
	id = c.rec.begin("cachesim.block_sweep")
	block, err := cachesim.BlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), cachesim.PaperBlockCacheSizes())
	c.rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("cachesim: block sweep: %v", err)
	}
	id = c.rec.begin("cachesim.paging_sweep")
	paging, err := cachesim.PagingSweepTape(tape, 4096, sizes)
	c.rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("cachesim: paging sweep: %v", err)
	}
	id = c.rec.begin("cachesim.zoo_sweep")
	zoo, err := cachesim.ZooSweepTape(tape, 4096, sizes, c.seed)
	c.rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("cachesim: zoo sweep: %v", err)
	}
	id = c.rec.begin("cachesim.ablation_sweep")
	repl, err := cachesim.ReplacementSweepTape(tape, 4096, 2<<20, 1)
	var flush []*cachesim.Result
	if err == nil {
		flush, err = cachesim.FlushIntervalSweepTape(tape, 4096, 2<<20,
			[]trace.Time{trace.Second, 30 * trace.Second, 5 * trace.Minute, trace.Hour})
	}
	c.rec.end(id, 0)
	if err != nil {
		return fmt.Errorf("cachesim: ablation sweep: %v", err)
	}

	for i := range sizes {
		tally(policy[i]...)
		tally(paging[i][0], paging[i][1])
		tally(zoo[i]...)
		if lru, dw := zoo[i][0], policy[i][3]; lru.DiskIOs() != dw.DiskIOs() {
			return fmt.Errorf("cachesim: zoo lru %d disk I/Os at %d bytes, delayed-write column %d",
				lru.DiskIOs(), sizes[i], dw.DiskIOs())
		}
	}
	for _, row := range block.Results {
		tally(row...)
	}
	for _, rp := range cachesim.AllReplacements() {
		if r := repl[rp]; r != nil {
			tally(r)
		}
	}
	tally(flush...)
	c.counts["cachesim.accesses"] = float64(accesses)
	c.counts["cachesim.disk_ios"] = float64(diskIOs)

	id = c.rec.begin("report.render")
	renderAnalysis(out, an)
	report.TableVI(sizes, policies, policy).Render(out)
	report.TableVII(block).Render(out)
	report.Figure7(sizes, paging).Render(out)
	report.ZooTable(sizes, zoo).Render(out)
	c.rec.end(id, int64(out.Len()))
	return nil
}

// metrics turns a traced pass's spans and counts into per-layer values.
func (c *census) metrics() map[string]float64 {
	total, self := c.rec.totals()
	secs := func(name string) float64 { return float64(total[name]) / 1e9 }
	perEvent := func(name string, n float64) float64 { return float64(total[name]) / n }
	events := c.counts["workload.events"]
	prefix := float64(c.prefix)
	sweeps := 0.0
	m := map[string]float64{
		"workload.self_s":              float64(self["workload.generate"]) / 1e9,
		"workload.ns_per_event":        float64(self["workload.generate"]) / events,
		"workload.allocs_per_event":    c.allocs["workload"] / events,
		"workload.events":              events,
		"kernel.syscalls":              c.counts["kernel.syscalls"],
		"kernel.syscalls_per_event":    c.counts["kernel.syscalls"] / events,
		"kernel.resolves":              c.counts["kernel.resolves"],
		"trace.v1_decode_ns_per_event": perEvent("trace.v1_decode", prefix),
		"trace.v2_encode_ns_per_event": perEvent("trace.v2_encode", prefix),
		"trace.v2_decode_ns_per_event": perEvent("trace.v2_decode", prefix),
		"trace.v1_bytes_per_event":     c.counts["trace.v1_bytes"] / prefix,
		"trace.v2_bytes_per_event":     c.counts["trace.v2_bytes"] / prefix,
		"trace.merge_ns_per_event":     perEvent("trace.merge", prefix),
		"trace.validate_ns_per_event":  perEvent("trace.validate", prefix),
		"trace.fanout_wait_s":          secs("trace.fanout_write"),
		"analyzer.ns_per_event":        perEvent("analyzer.feed", prefix),
		"analyzer.allocs_per_event":    c.allocs["analyzer"] / prefix,
		"analyzer.finish_s":            secs("analyzer.finish"),
		"analyzer.state_bytes":         c.counts["analyzer.state_bytes"],
		"analyzer.restore_s":           secs("analyzer.restore"),
		"analyzer.replay_s":            secs("analyzer.replay"),
		"xfer.ns_per_event":            perEvent("xfer.build", prefix),
		"xfer.finish_s":                secs("xfer.finish"),
		"xfer.transfers":               c.counts["xfer.transfers"],
		"cachesim.accesses":            c.counts["cachesim.accesses"],
		"cachesim.disk_ios":            c.counts["cachesim.disk_ios"],
		"ffs.waste_sweep_s":            secs("ffs.waste_sweep"),
		"namei.metadata_s":             secs("namei.metadata"),
		"namei.name_hit_ratio":         c.counts["namei.name_hit_ratio"],
		"report.render_s":              secs("report.render"),
	}
	for _, sw := range []string{"policy", "block", "paging", "zoo", "ablation"} {
		s := secs("cachesim." + sw + "_sweep")
		m["cachesim."+sw+"_sweep_s"] = s
		sweeps += s
	}
	m["cachesim.ns_per_access"] = sweeps * 1e9 / c.counts["cachesim.accesses"]
	return m
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// calibIters sizes the calibration loop to tens of milliseconds.
const calibIters = 1 << 26

var calibSink uint64

// calibrate times a fixed stdlib-only integer loop. Run next to each
// workload, it shows a slow host window in the record.
func calibrate() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t).Seconds()
}
