package namei

import (
	"strings"
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// oracleResolve is the plain walk Resolve must equal in Stats: split
// the path, and build each name-cache key and each next directory by
// concatenation.
func oracleResolve(s *Simulator, path string) {
	s.Stats.Resolves++
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	dir := "/"
	for i, comp := range parts {
		if comp == "" {
			continue
		}
		if i == len(parts)-1 {
			// The final component: read the file's own i-node.
			if s.inodes.touch(path) {
				s.Stats.InodeHits++
			} else {
				s.Stats.InodeMisses++
			}
			break
		}
		s.Stats.Components++
		key := dir + "\x00" + comp
		if s.names.touch(key) {
			s.Stats.NameHits++
		} else {
			s.Stats.NameMisses++
			// Miss: read the directory's descriptor and contents.
			if s.inodes.touch(dir) {
				s.Stats.InodeHits++
			} else {
				s.Stats.InodeMisses++
			}
			if s.dirs.touch(dir) {
				s.Stats.DirBlockHits++
			} else {
				s.Stats.DirBlockMisses++
			}
		}
		if dir == "/" {
			dir = "/" + comp
		} else {
			dir = dir + "/" + comp
		}
	}
}

// twins drives each Simulator and an oracle-walked twin with the same
// hook calls.
type twins struct{ sims, oracles []*Simulator }

func newTwins(cfgs ...Config) *twins {
	tw := &twins{}
	for _, cfg := range cfgs {
		tw.sims = append(tw.sims, New(cfg))
		tw.oracles = append(tw.oracles, New(cfg))
	}
	return tw
}

func (tw *twins) Resolve(path string) {
	for i, s := range tw.sims {
		s.Resolve(path)
		oracleResolve(tw.oracles[i], path)
	}
}

func (tw *twins) InodeUpdate() {
	for i, s := range tw.sims {
		s.InodeUpdate()
		tw.oracles[i].InodeUpdate()
	}
}

func (tw *twins) DirUpdate(dir string) {
	for i, s := range tw.sims {
		s.DirUpdate(dir)
		tw.oracles[i].DirUpdate(dir)
	}
}

// TestResolveMatchesOracle: Resolve's Stats equal the plain walk's over
// the kernel's resolve stream of an A5 generation, at the metadata
// table's three cache scales, and over paths with empty and "."
// components, a trailing "/", and no leading "/".
func TestResolveMatchesOracle(t *testing.T) {
	d := 8 * trace.Hour
	if testing.Short() {
		d = trace.Hour
	}
	var cfgs []Config
	for _, n := range []int{40, 120, 400} {
		cfgs = append(cfgs, Config{NameEntries: n, InodeEntries: n / 2, DirBlocks: n / 6})
	}
	tw := newTwins(cfgs...)
	if _, err := workload.GenerateStream(workload.Config{Profile: "A5", Seed: 1, Duration: d, Meta: tw}, nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range tw.sims {
		if o := tw.oracles[i]; s.Stats != o.Stats || s.Stats.NameMisses == 0 || s.Stats.NameHits == 0 {
			t.Errorf("%d name entries: Resolve %+v, oracle %+v", s.names.cap, s.Stats, o.Stats)
		}
	}

	edge := newTwins(Config{NameEntries: 4, InodeEntries: 3, DirBlocks: 2})
	for _, path := range []string{
		"/usr/include/stdio.h", "//usr/include/stdio.h", "/usr//include/stdio.h",
		"/usr/./include/stdio.h", "/./usr/include/stdio.h", "/usr/include/",
		"/usr/include//", "/usr/include/stdio.h/", "usr/include/stdio.h", "",
		"/", "//", "///", "/.", "/./", "/usr/.", "/usr/include/./", "/a", "a",
		"/usr/include/stdio.h", "/usr/lib/libc.a", "/usr//lib//", "/tmp/x/y/z",
	} {
		edge.Resolve(path)
		if s, o := edge.sims[0], edge.oracles[0]; s.Stats != o.Stats {
			t.Fatalf("after %q: Resolve %+v, oracle %+v", path, s.Stats, o.Stats)
		}
	}
}

// TestResolveAllocs: a warmed resolve of a clean path allocates nothing,
// on hits and, once the caches are full, on misses that evict.
func TestResolveAllocs(t *testing.T) {
	s := New(Config{NameEntries: 4, InodeEntries: 4, DirBlocks: 4})
	hot := "/usr/include/sys/types.h"
	cold := []string{"/a/b/c/f", "/d/e/f/g", "/h/i/j/k"}
	for _, p := range append(cold, hot) {
		s.Resolve(p)
	}
	if n := testing.AllocsPerRun(100, func() { s.Resolve(hot) }); n != 0 {
		t.Errorf("warm hit: %v allocations per Resolve, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { s.Resolve(cold[i%len(cold)]); i++ }); n != 0 {
		t.Errorf("full-cache misses: %v allocations per Resolve, want 0", n)
	}
}

func TestResolveColdAndWarm(t *testing.T) {
	s := New(Config{})
	// Cold resolve of /usr/include/stdio.h: two directory components,
	// each missing (name, dir inode, dir block), plus the file's inode.
	s.Resolve("/usr/include/stdio.h")
	if s.Stats.Resolves != 1 || s.Stats.Components != 2 {
		t.Fatalf("stats after cold resolve: %+v", s.Stats)
	}
	if s.Stats.NameMisses != 2 || s.Stats.NameHits != 0 {
		t.Errorf("name cache: %+v", s.Stats)
	}
	if s.Stats.InodeMisses != 3 { // usr dir, include dir, file
		t.Errorf("inode misses = %d, want 3", s.Stats.InodeMisses)
	}
	if s.Stats.DirBlockMisses != 2 {
		t.Errorf("dir block misses = %d, want 2", s.Stats.DirBlockMisses)
	}
	// "a minimum of two block accesses for each element in a file's
	// pathname": 2 components x 2 + 1 file inode.
	if got := s.Stats.DiskReads(); got != 5 {
		t.Errorf("cold DiskReads = %d, want 5", got)
	}

	// Warm resolve: everything hits; only the name cache and file inode
	// are consulted.
	before := s.Stats.DiskReads()
	s.Resolve("/usr/include/stdio.h")
	if s.Stats.DiskReads() != before {
		t.Errorf("warm resolve cost disk reads")
	}
	if s.Stats.NameHits != 2 {
		t.Errorf("warm name hits = %d, want 2", s.Stats.NameHits)
	}
}

func TestRootFileResolve(t *testing.T) {
	s := New(Config{})
	s.Resolve("/vmunix")
	if s.Stats.Components != 0 {
		t.Errorf("root file should have no directory components: %+v", s.Stats)
	}
	if s.Stats.InodeMisses != 1 {
		t.Errorf("inode misses = %d, want 1", s.Stats.InodeMisses)
	}
}

func TestHitRatios(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 10; i++ {
		s.Resolve("/a/b/file")
	}
	// First resolve misses twice, the rest hit twice each.
	if got := s.Stats.NameHitRatio(); got != 18.0/20 {
		t.Errorf("NameHitRatio = %v, want 0.9", got)
	}
	// Inode probes: 3 cold misses (a, b, file), then 9 warm file hits;
	// directory inodes are only consulted on name-cache misses.
	if got := s.Stats.InodeHitRatio(); got != 0.75 {
		t.Errorf("InodeHitRatio = %v, want 0.75", got)
	}
	var empty Stats
	if empty.NameHitRatio() != 0 || empty.InodeHitRatio() != 0 {
		t.Errorf("empty ratios should be 0")
	}
}

func TestCapacityEviction(t *testing.T) {
	s := New(Config{NameEntries: 2, InodeEntries: 2, DirBlocks: 2})
	s.Resolve("/d1/f")
	s.Resolve("/d2/f")
	s.Resolve("/d3/f") // evicts d1's entries
	missesBefore := s.Stats.NameMisses
	s.Resolve("/d1/f") // must miss again
	if s.Stats.NameMisses != missesBefore+1 {
		t.Errorf("evicted entry did not miss")
	}
}

func TestUpdates(t *testing.T) {
	s := New(Config{})
	s.InodeUpdate()
	s.DirUpdate("/tmp")
	if s.Stats.InodeWrites != 1 || s.Stats.DirWrites != 1 {
		t.Errorf("updates not counted: %+v", s.Stats)
	}
	if s.Stats.DiskWrites() != 2 || s.Stats.DiskIOs() != 2 {
		t.Errorf("write totals wrong: %+v", s.Stats)
	}
	// The rewritten directory block is now cached: resolving a component
	// *inside* /tmp misses the name cache but hits the dir block cache.
	s.Resolve("/tmp/x/y")
	if s.Stats.DirBlockHits != 1 {
		t.Errorf("dir update should warm the dir block cache: %+v", s.Stats)
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(Config{})
	if s.names.cap <= 0 || s.inodes.cap <= 0 || s.dirs.cap <= 0 {
		t.Errorf("defaults not filled: %d names, %d inodes, %d dir blocks", s.names.cap, s.inodes.cap, s.dirs.cap)
	}
}

// Integration: the paper's conclusion experiment. Attach the metadata
// simulator to a real workload and compare metadata disk I/O with the
// data-block I/O of a UNIX-sized cache; the paper estimates metadata could
// be more than half of all disk block references, and Leffler et al.
// report an ~85% directory cache hit ratio.
func TestMetadataVersusDataIO(t *testing.T) {
	sim := New(Config{})
	res, err := workload.Generate(workload.Config{
		Profile: "A5", Seed: 4, Duration: 30 * trace.Minute, Meta: sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stats.Resolves == 0 {
		t.Fatal("meta hook never called")
	}
	hit := sim.Stats.NameHitRatio()
	if hit < 0.70 || hit > 0.999 {
		t.Errorf("name cache hit ratio = %.3f, want high (Leffler: ~0.85)", hit)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cachesim.SimulateTape(tape, cachesim.Config{
		BlockSize: 4096, CacheSize: cachesim.UnixCacheSize,
		Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := sim.Stats.DiskIOs()
	if meta == 0 {
		t.Fatal("no metadata I/O")
	}
	frac := float64(meta) / float64(meta+data.DiskIOs())
	// The paper: "more than half of all disk block references could come
	// from these other accesses" (which also include paging). Metadata
	// alone should at least be a substantial fraction.
	if frac < 0.15 {
		t.Errorf("metadata fraction of disk I/O = %.2f, implausibly small", frac)
	}
	t.Logf("metadata %d vs data %d disk I/Os (%.0f%% metadata); name hit %.1f%%",
		meta, data.DiskIOs(), 100*frac, 100*hit)
}
