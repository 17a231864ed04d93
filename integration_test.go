// End-to-end tests of the whole reproduction pipeline: generation,
// serialization, analysis, and simulation working together.
package bsdtrace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/namei"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

func mustTape(t *testing.T, events []trace.Event) *xfer.Tape {
	t.Helper()
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// TestPipelineDeterminism: the same seed must produce a byte-identical
// rendered report, end to end.
func TestPipelineDeterminism(t *testing.T) {
	render := func() []byte {
		res, err := workload.Generate(workload.Config{Profile: "E3", Seed: 21, Duration: 30 * trace.Minute})
		if err != nil {
			t.Fatal(err)
		}
		a := analyzer.Analyze(res.Events, analyzer.Options{})
		tr := report.Traces{Names: []string{"E3"}, Analyses: []*analyzer.Analysis{a}}
		var buf bytes.Buffer
		if err := report.TableIII(tr).Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := report.TableV(tr).Render(&buf); err != nil {
			t.Fatal(err)
		}
		sim, err := cachesim.SimulateTape(mustTape(t, res.Events), cachesim.Config{
			BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := report.ResidencyTable(sim).Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render()
	second := render()
	if !bytes.Equal(first, second) {
		t.Fatal("same seed rendered different reports")
	}
}

// TestFileRoundTripPreservesAnalysis: writing a trace to disk and reading
// it back must not change any analysis result.
func TestFileRoundTripPreservesAnalysis(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "C4", Seed: 5, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c4.trace")
	if err := trace.WriteFile(path, res.Events); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadSource(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, res.Events) {
		t.Fatal("events changed through file round trip")
	}
	a1 := analyzer.Analyze(res.Events, analyzer.Options{})
	a2 := analyzer.Analyze(loaded, analyzer.Options{})
	if a1.Overall != a2.Overall {
		t.Fatalf("analysis differs after round trip:\n%+v\n%+v", a1.Overall, a2.Overall)
	}
}

// TestSeedStability: the headline shapes are properties of the workload
// model, not of one lucky seed. Three seeds must all land inside loose
// brackets.
func TestSeedStability(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		res, err := workload.Generate(workload.Config{Profile: "A5", Seed: seed, Duration: trace.Hour})
		if err != nil {
			t.Fatal(err)
		}
		a := analyzer.Analyze(res.Events, analyzer.Options{})
		if f := a.Sequentiality.WholeFileFraction(analyzer.ClassReadOnly); f < 0.5 || f > 0.85 {
			t.Errorf("seed %d: whole-file read fraction %.2f out of bracket", seed, f)
		}
		if f := a.OpenTimes.FractionAtOrBelow(0.5); f < 0.6 || f > 0.95 {
			t.Errorf("seed %d: opens<=0.5s %.2f out of bracket", seed, f)
		}
		sim, err := cachesim.SimulateTape(mustTape(t, res.Events), cachesim.Config{
			BlockSize: 4096, CacheSize: 4 << 20, Write: cachesim.DelayedWrite,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m := sim.MissRatio(); m < 0.02 || m > 0.45 {
			t.Errorf("seed %d: 4MB delayed-write miss ratio %.2f out of bracket", seed, m)
		}
	}
}

// TestPaperShapesEndToEnd asserts the cross-artifact orderings the paper's
// conclusions rest on, over one trace: write-policy ordering, cache-size
// monotonicity, the Figure 7 crossover, and the block-size upturn.
func TestPaperShapesEndToEnd(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: 2 * trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tape := mustTape(t, res.Events)

	sizes := cachesim.PaperCacheSizes()
	pols := cachesim.PaperPolicies()
	sweep, err := cachesim.PolicySweepTape(tape, 4096, sizes, pols)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		for j := 1; j < len(pols); j++ {
			if sweep[i][j].MissRatio() > sweep[i][j-1].MissRatio()+1e-9 {
				t.Errorf("policy ordering violated at %d bytes: %v then %v",
					sizes[i], sweep[i][j-1].MissRatio(), sweep[i][j].MissRatio())
			}
		}
		if i > 0 {
			for j := range pols {
				if sweep[i][j].MissRatio() > sweep[i-1][j].MissRatio()+1e-9 {
					t.Errorf("cache-size monotonicity violated for %s", pols[j].Name)
				}
			}
		}
	}
	// The UNIX configuration roughly halves disk traffic (paper §6.4:
	// "this combination of cache size and write policy should reduce
	// disk accesses by about a factor of two").
	unix := sweep[0][1].MissRatio() // 390 KB, 30-second flushes
	if unix < 0.3 || unix > 0.8 {
		t.Errorf("UNIX-config miss ratio %.2f not in the halving regime", unix)
	}

	// Figure 7: paging hurts small caches, helps big ones.
	paging, err := cachesim.PagingSweepTape(tape, 4096, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if paging[0][1].MissRatio() <= paging[0][0].MissRatio() {
		t.Errorf("paging should degrade the smallest cache")
	}
	last := len(sizes) - 1
	if paging[last][1].MissRatio() >= paging[last][0].MissRatio() {
		t.Errorf("paging should improve the largest cache")
	}

	// Table VII: the 32-KB upturn at the smallest cache.
	block, err := cachesim.BlockSizeSweepTape(tape, cachesim.PaperBlockSizes(), []int64{400 << 10})
	if err != nil {
		t.Fatal(err)
	}
	n := len(block.BlockSizes)
	if block.Results[n-1][0].DiskIOs() <= block.Results[n-2][0].DiskIOs() {
		t.Errorf("32KB blocks should cost more I/Os than 16KB at a 400KB cache")
	}
	// And 8 KB must beat 1 KB everywhere (the paper's strong claim).
	if block.Results[3][0].DiskIOs() >= block.Results[0][0].DiskIOs() {
		t.Errorf("8KB blocks should beat 1KB blocks")
	}
}

// TestMetadataHookDoesNotPerturbTrace: attaching the namei simulator must
// not change the generated trace (hooks observe, never steer).
func TestMetadataHookDoesNotPerturbTrace(t *testing.T) {
	plain, err := workload.Generate(workload.Config{Profile: "A5", Seed: 9, Duration: 20 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := workload.Generate(workload.Config{
		Profile: "A5", Seed: 9, Duration: 20 * trace.Minute, Meta: namei.New(namei.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Events, hooked.Events) {
		t.Fatal("metadata hook changed the trace")
	}
}

// TestStackDistanceTracksSimulator: on the real workload, the one-pass
// stack curve and the simulator's delayed-write curve must tell the same
// story (strongly correlated, both falling with cache size).
func TestStackDistanceTracksSimulator(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 2, Duration: trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tape := mustTape(t, res.Events)
	stack, err := cachesim.StackDistancesTape(tape, 4096)
	if err != nil {
		t.Fatal(err)
	}
	prevStack, prevSim := math.Inf(1), math.Inf(1)
	for _, cs := range []int64{512 << 10, 2 << 20, 8 << 20} {
		sim, err := cachesim.SimulateTape(tape, cachesim.Config{
			BlockSize: 4096, CacheSize: cs, Write: cachesim.DelayedWrite,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, m := stack.MissRatio(cs), sim.MissRatio()
		if s > prevStack+1e-9 || m > prevSim+1e-9 {
			t.Errorf("curves not falling at %d bytes", cs)
		}
		prevStack, prevSim = s, m
	}
}
