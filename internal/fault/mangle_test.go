package fault

import (
	"math/rand"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/sourcetest"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

func genTrace(t *testing.T, d trace.Time) []trace.Event {
	t.Helper()
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	return res.Events
}

func mangleAll(t *testing.T, events []trace.Event, cfg MangleConfig) ([]trace.Event, MangleStats) {
	t.Helper()
	m := NewTraceMangler(trace.NewSliceSource(events), cfg)
	out, err := trace.ReadSource(m)
	if err != nil {
		t.Fatal(err)
	}
	return out, m.Stats()
}

// TestManglerConformance runs the mangler through the shared source
// suite with drops, duplicates, jitter and truncation all on, so a
// duplicate regularly lands on a full batch and is held over. The
// expected stream is an exact oracle that replays the damage draws over
// the whole input in one loop.
func TestManglerConformance(t *testing.T) {
	events := genTrace(t, 10*trace.Minute)
	cfg := MangleConfig{Seed: 7, Drop: 0.05, Duplicate: 0.1, Jitter: 0.05,
		TruncateAfter: int64(len(events) * 3 / 4)}
	sourcetest.Run(t, func(t *testing.T) trace.Source {
		return NewTraceMangler(trace.NewSliceSource(events), cfg)
	}, mangleOracle(events, cfg))
}

// mangleOracle applies cfg's damage to a whole trace: per input event,
// in order, the drop, jitter and duplicate draws. cfg.BitFlip must be
// zero.
func mangleOracle(events []trace.Event, cfg MangleConfig) []trace.Event {
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := int64(DefaultJitterMax)
	var out []trace.Event
	for i, e := range events {
		if int64(i) == cfg.TruncateAfter {
			break
		}
		if rng.Float64() < cfg.Drop {
			continue
		}
		if rng.Float64() < cfg.Jitter {
			e.Time += trace.Time(rng.Int63n(2*span+1) - span)
		}
		out = append(out, e)
		if rng.Float64() < cfg.Duplicate {
			out = append(out, e)
		}
	}
	return out
}

func TestManglerPassthrough(t *testing.T) {
	events := genTrace(t, 10*trace.Minute)
	out, stats := mangleAll(t, events, MangleConfig{Seed: 1})
	if len(out) != len(events) {
		t.Fatalf("passthrough changed event count: %d -> %d", len(events), len(out))
	}
	for i := range out {
		if out[i] != events[i] {
			t.Fatalf("passthrough changed event %d", i)
		}
	}
	if stats.Dropped+stats.Duplicated+stats.Flipped+stats.Jittered != 0 || stats.Truncated {
		t.Fatalf("passthrough inflicted damage: %+v", stats)
	}
}

func TestManglerDeterminism(t *testing.T) {
	events := genTrace(t, 10*trace.Minute)
	cfg := MangleConfig{Seed: 42, Drop: 0.05, Duplicate: 0.05, BitFlip: 0.05, Jitter: 0.05}
	a, as := mangleAll(t, events, cfg)
	b, bs := mangleAll(t, events, cfg)
	if as != bs {
		t.Fatalf("stats differ across runs: %+v vs %+v", as, bs)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical runs", i)
		}
	}
	c, _ := mangleAll(t, events, MangleConfig{Seed: 43, Drop: 0.05, Duplicate: 0.05, BitFlip: 0.05, Jitter: 0.05})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical damage")
	}
}

func TestManglerModes(t *testing.T) {
	events := genTrace(t, 10*trace.Minute)
	n := int64(len(events))

	out, stats := mangleAll(t, events, MangleConfig{Seed: 7, Drop: 0.1})
	if stats.Dropped == 0 || int64(len(out)) != n-stats.Dropped {
		t.Fatalf("drop mode: %d events, stats %+v", len(out), stats)
	}

	out, stats = mangleAll(t, events, MangleConfig{Seed: 7, Duplicate: 0.1})
	if stats.Duplicated == 0 || int64(len(out)) != n+stats.Duplicated {
		t.Fatalf("duplicate mode: %d events, stats %+v", len(out), stats)
	}

	out, stats = mangleAll(t, events, MangleConfig{Seed: 7, BitFlip: 0.1})
	if stats.Flipped == 0 || int64(len(out)) != n {
		t.Fatalf("bitflip mode: %d events, stats %+v", len(out), stats)
	}
	changed := 0
	for i := range out {
		if out[i] != events[i] {
			changed++
		}
	}
	if int64(changed) != stats.Flipped {
		t.Fatalf("bitflip mode: %d events changed, %d flips recorded", changed, stats.Flipped)
	}

	out, stats = mangleAll(t, events, MangleConfig{Seed: 7, Jitter: 0.1, JitterMax: trace.Second})
	if stats.Jittered == 0 {
		t.Fatalf("jitter mode: stats %+v", stats)
	}
	for i := range out {
		d := out[i].Time - events[i].Time
		if d < -trace.Second || d > trace.Second {
			t.Fatalf("jitter out of bounds: event %d moved %v", i, d)
		}
	}

	out, stats = mangleAll(t, events, MangleConfig{Seed: 7, TruncateAfter: 100})
	if len(out) != 100 || !stats.Truncated {
		t.Fatalf("truncate mode: %d events, stats %+v", len(out), stats)
	}
}

// TestMangledRecoveryValidates: mangle → recover must always yield a
// stream that passes the Validator, with the repair budget balancing.
func TestMangledRecoveryValidates(t *testing.T) {
	events := genTrace(t, 30*trace.Minute)
	cfgs := []MangleConfig{
		{Seed: 1, Drop: 0.01},
		{Seed: 2, Duplicate: 0.01},
		{Seed: 3, BitFlip: 0.01},
		{Seed: 4, Jitter: 0.01},
		{Seed: 5, TruncateAfter: int64(len(events) / 2)},
		{Seed: 6, Drop: 0.02, Duplicate: 0.02, BitFlip: 0.02, Jitter: 0.02},
	}
	for _, cfg := range cfgs {
		rec := trace.NewRecoverSource(NewTraceMangler(trace.NewSliceSource(events), cfg))
		v := trace.NewValidator(0)
		var emitted int64
		if err := trace.Each(rec, func(e trace.Event) error {
			v.Check(e)
			emitted++
			return nil
		}); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if errs := v.Errs(); len(errs) != 0 {
			t.Fatalf("%+v: repaired stream fails validation: %v", cfg, errs[0])
		}
		st := rec.Stats()
		if st.Emitted != emitted || st.Emitted != st.Events-st.Dropped+st.Synthesized {
			t.Fatalf("%+v: accounting broken: %+v (emitted %d)", cfg, st, emitted)
		}
	}
}

// TestResilience8h is the issue's resilience invariant: every mangler
// mode at ≤1% fault rate on the 8h seed trace must flow through lenient
// ingestion — recovery, the analyzer, and the cache simulator — with no
// panic and an exactly-balancing repair budget. It generates the 8h
// trace once, so it is skipped in -short runs like the golden test.
func TestResilience8h(t *testing.T) {
	if testing.Short() {
		t.Skip("8h workload generation in -short mode")
	}
	events := genTrace(t, 8*trace.Hour)
	modes := []struct {
		name string
		cfg  MangleConfig
	}{
		{"drop", MangleConfig{Seed: 11, Drop: 0.01}},
		{"duplicate", MangleConfig{Seed: 12, Duplicate: 0.01}},
		{"bitflip", MangleConfig{Seed: 13, BitFlip: 0.01}},
		{"jitter", MangleConfig{Seed: 14, Jitter: 0.01}},
		{"truncate", MangleConfig{Seed: 15, TruncateAfter: int64(len(events) * 99 / 100)}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			m := NewTraceMangler(trace.NewSliceSource(events), mode.cfg)
			rec := trace.NewRecoverSource(m)

			an := analyzer.NewStream(analyzer.Options{})
			tb := xfer.NewTapeBuilder()
			var emitted int64
			if err := trace.Each(rec, func(e trace.Event) error {
				an.Feed(e)
				tb.Add(e)
				emitted++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			st := rec.Stats()
			if st.Emitted != emitted || st.Emitted != st.Events-st.Dropped+st.Synthesized {
				t.Fatalf("accounting broken: %+v (emitted %d)", st, emitted)
			}
			if a := an.Finish(); a == nil {
				t.Fatal("analyzer returned nil")
			}
			tape, err := tb.Finish()
			if err != nil {
				t.Fatalf("tape build failed on recovered stream: %v", err)
			}
			results, err := cachesim.MultiSimulate(tape, []cachesim.Config{
				{BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.WriteThrough},
				{BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second},
				{BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite},
			})
			if err != nil {
				t.Fatalf("cache simulation failed on recovered stream: %v", err)
			}
			for _, r := range results {
				if r == nil {
					t.Fatal("nil simulation result")
				}
			}
		})
	}
}
