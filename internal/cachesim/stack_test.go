package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

func TestStackDistanceSmall(t *testing.T) {
	// Reference string over files 1,2,3 (one block each): 1 2 3 1 2 3.
	b := newTB()
	for round := 0; round < 2; round++ {
		for f := trace.FileID(1); f <= 3; f++ {
			b.read(f, 100)
		}
	}
	r, err := StackDistancesTape(mustTape(t, b.events), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r.References != 6 || r.ColdMisses != 3 {
		t.Fatalf("refs=%d cold=%d", r.References, r.ColdMisses)
	}
	// Second-round references each have reuse distance 2: they hit only
	// with >= 3 blocks of cache.
	if got := r.MissRatio(3 * 4096); got != 0.5 {
		t.Errorf("miss at 3 blocks = %v, want 0.5 (cold only)", got)
	}
	if got := r.MissRatio(2 * 4096); got != 1.0 {
		t.Errorf("miss at 2 blocks = %v, want 1.0", got)
	}
	if r.DistinctBlocks() != 3 {
		t.Errorf("DistinctBlocks = %d", r.DistinctBlocks())
	}
}

func TestStackDistanceRepeats(t *testing.T) {
	// 1 1 1 1: distance 0 after the first; hits with any cache.
	b := newTB()
	for i := 0; i < 4; i++ {
		b.read(1, 100)
	}
	r, err := StackDistancesTape(mustTape(t, b.events), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MissRatio(4096); got != 0.25 {
		t.Errorf("miss at 1 block = %v, want 0.25", got)
	}
}

func TestStackDistanceBadInput(t *testing.T) {
	if _, err := StackDistancesTape(&xfer.Tape{}, 0); err == nil {
		t.Errorf("zero block size accepted")
	}
}

func TestStackCurveMonotone(t *testing.T) {
	r, err := StackDistancesTape(mustTape(t, randomTrace(3, 400)), 4096)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{4096, 8 * 4096, 64 * 4096, 1 << 20, 16 << 20}
	curve := make([]float64, len(sizes))
	for i, cs := range sizes {
		curve[i] = r.MissRatio(cs)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-12 {
			t.Fatalf("curve not monotone: %v", curve)
		}
	}
	// At infinite capacity only cold misses remain.
	if got, want := r.MissRatio(1<<40), float64(r.ColdMisses)/float64(r.References); got != want {
		t.Errorf("asymptotic miss = %v, want cold ratio %v", got, want)
	}
}

// refLRU is an oracle: a direct LRU simulation over the same block
// reference string, counting reference misses.
func refLRU(events []trace.Event, blockSize int64, capBlocks int) (misses, refs int64) {
	type key = blockKey
	pos := make(map[key]int)
	var stack []key
	sc := xfer.NewScanner()
	sc.OnTransfer = func(t xfer.Transfer) {
		first := t.Offset / blockSize
		last := (t.End() - 1) / blockSize
		for idx := first; idx <= last; idx++ {
			k := key{file: t.File, idx: idx}
			refs++
			if at, ok := pos[k]; ok {
				stack = append(stack[:at], stack[at+1:]...)
				for i := at; i < len(stack); i++ {
					pos[stack[i]] = i
				}
			} else {
				misses++
			}
			if !containsKey(pos, k) && len(stack) >= capBlocks {
				victim := stack[0]
				stack = stack[1:]
				delete(pos, victim)
				for i := range stack {
					pos[stack[i]] = i
				}
			}
			stack = append(stack, k)
			pos[k] = len(stack) - 1
		}
	}
	for _, e := range events {
		sc.Feed(e)
	}
	sc.Finish()
	return misses, refs
}

func containsKey(m map[blockKey]int, k blockKey) bool {
	_, ok := m[k]
	return ok
}

// Property: the one-pass stack analysis agrees exactly with a direct LRU
// simulation at arbitrary cache sizes. This is the inclusion property that
// justifies the algorithm.
func TestStackMatchesDirectLRU(t *testing.T) {
	f := func(seed int64, rawCap uint8) bool {
		events := randomTrace(seed, 150)
		capBlocks := int(rawCap%32) + 1
		tape, err := xfer.NewTape(events)
		if err != nil {
			return false
		}
		r, err := StackDistancesTape(tape, 4096)
		if err != nil {
			return false
		}
		oracleMisses, oracleRefs := refLRU(events, 4096, capBlocks)
		if oracleRefs != r.References {
			return false
		}
		want := 0.0
		if oracleRefs > 0 {
			want = float64(oracleMisses) / float64(oracleRefs)
		}
		return r.MissRatio(int64(capBlocks)*4096) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The stack analysis bounds the full simulator from... neither side
// exactly (the simulator skips reads for whole-block overwrites but adds
// write-backs), but on a read-only workload with no deletions, the
// simulator under write-through equals the stack reference misses plus
// nothing.
func TestStackAgreesWithSimulatorReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := newTB()
	for i := 0; i < 300; i++ {
		b.read(trace.FileID(rng.Intn(25)+1), int64(rng.Intn(30000)+1))
	}
	const capBytes = 64 * 4096
	tape := mustTape(t, b.events)
	r, err := StackDistancesTape(tape, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateTape(tape, Config{BlockSize: 4096, CacheSize: capBytes, Write: WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.MissRatio(capBytes), sim.MissRatio(); got != want {
		t.Errorf("stack %v != simulator %v on read-only workload", got, want)
	}
}

func TestWorkingSetSmall(t *testing.T) {
	b := newTB()
	// Three distinct blocks touched within the first second, then the
	// same one block touched repeatedly a minute later.
	for f := trace.FileID(1); f <= 3; f++ {
		b.read(f, 100)
	}
	b.now = 60 * trace.Second
	b.read(1, 100)
	b.read(1, 100)
	ws, err := WorkingSetTape(mustTape(t, b.events), 4096, []trace.Time{10 * trace.Second})
	if err != nil {
		t.Fatal(err)
	}
	p := ws[0]
	if p.MaxBlocks != 3 {
		t.Errorf("MaxBlocks = %d, want 3", p.MaxBlocks)
	}
	// Windows: [0,10s) has 3 blocks, four empty windows, [60,70) has 1.
	if p.Windows != 7 {
		t.Errorf("Windows = %d, want 7", p.Windows)
	}
	if want := (3.0 + 1.0) / 7; p.MeanBlocks != want {
		t.Errorf("MeanBlocks = %v, want %v", p.MeanBlocks, want)
	}
	if p.MaxBytes != 3*4096 {
		t.Errorf("MaxBytes = %d", p.MaxBytes)
	}
}

func TestWorkingSetGrowsWithWindow(t *testing.T) {
	ws, err := WorkingSetTape(mustTape(t, randomTrace(11, 400)), 4096, []trace.Time{10 * trace.Second, trace.Minute, 10 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].MeanBlocks < ws[i-1].MeanBlocks {
			t.Errorf("W(T) should grow with T: %v then %v", ws[i-1].MeanBlocks, ws[i].MeanBlocks)
		}
		if ws[i].MaxBlocks < ws[i-1].MaxBlocks {
			t.Errorf("max W(T) should grow with T")
		}
	}
}

func TestWorkingSetErrors(t *testing.T) {
	if _, err := WorkingSetTape(&xfer.Tape{}, 0, []trace.Time{trace.Second}); err == nil {
		t.Errorf("zero block size accepted")
	}
	if _, err := WorkingSetTape(&xfer.Tape{}, 4096, []trace.Time{0}); err == nil {
		t.Errorf("zero window accepted")
	}
}
