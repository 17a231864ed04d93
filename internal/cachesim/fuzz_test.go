package cachesim

// Fuzz targets for the policy seam, the stack analysis and the one-pass
// LRU sweeps. All three run in CI's fuzz smoke (see
// .github/workflows/ci.yml): a short -fuzztime pass over the generated
// corpus, looking for panics and invariant breaks rather than deep
// exploration.

import (
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// FuzzReplacer interprets the input as an operation stream over a
// fuzzer-chosen policy and capacity, mirroring the adversarial
// conformance check: byte 0 picks the policy, byte 1 the capacity, and
// every following byte is one operation (top two bits) on one block ID
// (low six bits). The policy must never panic, Len must track a model
// residency map exactly, occupancy must never exceed capacity, and
// victim probes must return resident blocks without disturbing state.
func FuzzReplacer(f *testing.F) {
	f.Add([]byte{0, 3, 0x01, 0x02, 0x03, 0x01, 0xc0, 0x04})
	f.Add([]byte{4, 7, 0x01, 0x41, 0x81, 0xc1, 0x02, 0x03, 0x04, 0x05})
	f.Add([]byte{8, 63, 0x1f, 0x5f, 0x9f, 0xdf, 0x20, 0x60, 0xa0, 0xe0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		rep := Replacement(data[0]) % numReplacements
		capacity := int(data[1]%64) + 1
		p := NewPolicy(rep, capacity, 1)
		model := map[int32]bool{}
		for i, b := range data[2:] {
			id := int32(b & 0x3f)
			switch b >> 6 {
			case 0: // disciplined insert
				if !model[id] {
					for p.Len() >= capacity {
						v, ok := p.Victim()
						if !ok {
							t.Fatalf("op %d: Victim ok=false with %d resident", i, p.Len())
						}
						if !model[v] {
							t.Fatalf("op %d: Victim returned non-resident %d", i, v)
						}
						p.Remove(v)
						delete(model, v)
					}
				}
				p.Insert(id)
				model[id] = true
			case 1: // access, resident or not
				p.Access(id)
			case 2: // remove, resident or not (a purge)
				p.Remove(id)
				delete(model, id)
			default: // victim probe
				v, ok := p.Victim()
				if ok && !model[v] {
					t.Fatalf("op %d: Victim returned non-resident %d", i, v)
				}
				if !ok && len(model) > 0 {
					t.Fatalf("op %d: Victim ok=false with %d resident", i, len(model))
				}
			}
			if n := p.Len(); n != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", i, n, len(model))
			}
			if n := p.Len(); n > capacity {
				t.Fatalf("op %d: occupancy %d exceeds capacity %d", i, n, capacity)
			}
		}
	})
}

// fuzzTape builds a syntactically valid trace from the input bytes (via
// the same builder the unit tests use), two bytes an operation, and
// returns its tape, or nil if the input holds no operation.
func fuzzTape(t *testing.T, data []byte) *xfer.Tape {
	if len(data) > 512 {
		data = data[:512]
	}
	b := newTB()
	for i := 0; i+1 < len(data); i += 2 {
		op := data[i] >> 5
		file := trace.FileID(data[i]&0x1f) + 1
		size := (int64(data[i+1]) + 1) * 512
		switch op {
		case 0, 1:
			b.write(file, size)
		case 2, 3, 4:
			b.read(file, size)
		case 5:
			b.truncate(file, size/2)
		case 6:
			b.unlink(file)
		default:
			b.exec(file, size)
		}
	}
	if len(b.events) == 0 {
		return nil
	}
	tape, err := xfer.NewTape(b.events)
	if err != nil {
		t.Fatalf("builder produced invalid trace: %v", err)
	}
	return tape
}

// FuzzStackDistances builds a syntactically valid trace from the input
// bytes (via the same builder the unit tests use) and checks the stack
// analysis invariants: the miss curve is monotone non-increasing in
// cache size, pinned at References for a zero-block cache and at
// ColdMisses for an infinite one; and an independent LRU cache replaying
// the reference string reproduces Misses exactly at a spot-check size,
// as does the generalized priority-stack path.
func FuzzStackDistances(f *testing.F) {
	f.Add([]byte{0x21, 0x04, 0x41, 0x04, 0x22, 0x08, 0x61, 0x01})
	f.Add([]byte{0x01, 0x10, 0x81, 0x02, 0xa1, 0x00, 0xc1, 0x03, 0xe1, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tape := fuzzTape(t, data)
		if tape == nil {
			return
		}
		for _, bs := range []int64{512, 4096} {
			sr, err := StackDistancesTape(tape, bs)
			if err != nil {
				t.Fatal(err)
			}
			if sr.References < sr.ColdMisses {
				t.Fatalf("bs %d: %d cold misses exceed %d references", bs, sr.ColdMisses, sr.References)
			}
			if got := sr.Misses(0); got != sr.References {
				t.Fatalf("bs %d: Misses(0) = %d, want all %d references", bs, got, sr.References)
			}
			prev := sr.References
			for cap := 1; cap <= 128; cap *= 2 {
				m := sr.Misses(int64(cap) * bs)
				if m > prev {
					t.Fatalf("bs %d: miss curve not monotone: %d blocks -> %d misses, fewer blocks -> %d", bs, cap, m, prev)
				}
				if m < sr.ColdMisses {
					t.Fatalf("bs %d cap %d: %d misses below %d cold misses", bs, cap, m, sr.ColdMisses)
				}
				prev = m
			}
			if got := sr.Misses(1 << 40); got != sr.ColdMisses {
				t.Fatalf("bs %d: infinite cache misses %d, want cold %d", bs, got, sr.ColdMisses)
			}
			// Spot-check against an independent LRU cache and against the
			// linear-scan stack oracle (same algorithm, different engine).
			refs := referenceString(tape, resolvedFor(tape, bs))
			const capBlocks = 5
			lru := &simpleLRU{cap: capBlocks, blocks: make(map[int32]*lruNode)}
			var misses int64
			for _, id := range refs {
				if !lru.access(id) {
					misses++
				}
			}
			if got := sr.Misses(capBlocks * bs); got != misses {
				t.Fatalf("bs %d: stack misses %d, LRU cache missed %d", bs, got, misses)
			}
			gen := stackDistancesScan(tape, bs)
			if gen.ColdMisses != sr.ColdMisses || gen.Misses(capBlocks*bs) != sr.Misses(capBlocks*bs) {
				t.Fatalf("bs %d: stack oracle disagrees with Fenwick path", bs)
			}
		}
	})
}

// FuzzLRUSweep holds the one-pass LRU engine to MultiSimulate over a
// trace built as FuzzStackDistances builds it. shape picks the block
// size (512 bytes to 8 kbytes) and, by bit 4, the paging mode. Every
// pair of 1–6 cache sizes (from sizes, one byte each, down to a
// fraction of a block) and 1–4 write policies (from policies:
// write-through, delayed-write, or flush-back at an interval of 10 to
// 860 ms, against the builder's 10-ms event ticks) must give field for
// field the per-configuration result.
func FuzzLRUSweep(f *testing.F) {
	f.Add([]byte{0x21, 0x04, 0x41, 0x04, 0x22, 0x08, 0x61, 0x01, 0xc1, 0x00, 0x42, 0x07}, uint8(3), []byte{4, 1, 9, 4}, []byte{0, 1, 2, 26})
	f.Add([]byte{0x01, 0x10, 0x81, 0x02, 0xa1, 0x00, 0xc1, 0x03, 0xe1, 0x05}, uint8(0x11), []byte{0, 2, 33}, []byte{6, 10})
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, sizes, policies []byte) {
		tape := fuzzTape(t, data)
		if tape == nil || len(sizes) == 0 || len(policies) == 0 {
			return
		}
		bs := int64(512) << (shape % 5)
		var cfgs []Config
		for _, s := range sizes[:min(len(sizes), 6)] {
			for _, p := range policies[:min(len(policies), 4)] {
				cfg := Config{BlockSize: bs, CacheSize: int64(s%64+1) * bs / 4, SimulatePaging: shape&0x10 != 0}
				switch p % 3 {
				case 0:
					cfg.Write = WriteThrough
				case 1:
					cfg.Write = DelayedWrite
				default:
					cfg.Write, cfg.FlushInterval = FlushBack, trace.Time(p/3+1)*10*trace.Millisecond
				}
				cfgs = append(cfgs, cfg)
			}
		}
		got, err := lruSweep(tape, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MultiSimulate(tape, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%+v:\nengine     %+v\nper-config %+v", cfgs[i], got[i], want[i])
			}
		}
	})
}
