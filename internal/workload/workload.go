// Package workload generates synthetic traces that substitute for the
// paper's unavailable 1985 Berkeley traces (A5, E3, and C4).
//
// The original traces were recorded on three timeshared VAX-11/780s:
// Ucbarpa and Ucbernie (program development, document formatting, and
// administrative work) and Ucbcad (VLSI computer-aided design). Those trace
// files no longer exist, so this package reconstructs the *populations* the
// paper describes and lets them loose on the simulated kernel: developers
// running edit-compile-run cycles whose compiler temp files die within
// seconds; office users formatting documents into printer spool files;
// CAD users running circuit simulators that write large listings which are
// examined once and deleted; network status daemons that rewrite each of
// ~20 host files every 180 seconds (the source of the paper's striking
// 3-minute lifetime spike); and the handful of megabyte-scale
// administrative files that everything consults by seeking to a position
// and transferring a few hundred bytes.
//
// Everything is driven through the kernel's system-call interface, so the
// resulting events are produced by the same tracer hooks the analyses
// expect, not fabricated directly. All randomness flows from the config
// seed: the same configuration always yields a byte-identical trace.
//
// Calibration targets come from the paper's text rather than its exact
// counts; see DESIGN.md §2 for the list and EXPERIMENTS.md for how close
// the generated traces land.
package workload

import (
	"fmt"
	"math"
	"slices"

	"bsdtrace/internal/dist"
	"bsdtrace/internal/kernel"
	"bsdtrace/internal/sim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/vfs"
)

// Config selects and scales a workload.
type Config struct {
	// Profile is "A5", "E3", or "C4".
	Profile string
	// Seed drives all randomness; equal configs generate equal traces.
	Seed int64
	// Duration is the simulated time span. Default 8 hours (the paper's
	// traces ran 2-3 days; the distributions stabilize well before 8
	// simulated hours).
	Duration trace.Time
	// UserScale multiplies the profile's user population (default 1.0).
	UserScale float64
	// Shards splits the (scaled) user population into this many
	// independent shards, each a disjoint sub-population on its own
	// kernel and file system — a fleet of machines rather than one.
	// Shards generate concurrently on all cores and their streams merge
	// into one time-ordered trace with identifier remapping (see
	// trace.MergeSource). 0 or 1 means a single machine, and is
	// byte-identical to what this package generated before sharding
	// existed. The output is a pure function of (Config, Shards): the
	// same seed and shard count always yield the same merged trace,
	// regardless of GOMAXPROCS or scheduling.
	Shards int
	// Meta, if non-nil, observes the kernel's metadata activity
	// (pathname resolutions, i-node and directory updates) during
	// generation; see kernel.MetaHook and the namei package.
	Meta kernel.MetaHook
	// Diurnal turns on a day/night load cycle: the virtual day starts at
	// midnight, activity ramps up through the morning, peaks in the
	// afternoon ("during the peak hours of the day, about 2-3 files were
	// opened per second"), and falls off overnight, with the daemons
	// running around the clock. Off by default: the calibrated defaults
	// model the paper's busiest-part-of-the-work-week traces, which were
	// effectively all-peak. Use with Duration of 24 hours or more.
	Diurnal bool
}

func (c *Config) fill() error {
	if c.Profile == "" {
		c.Profile = "A5"
	}
	if _, ok := profiles[c.Profile]; !ok {
		return fmt.Errorf("workload: unknown profile %q (want A5, E3, or C4)", c.Profile)
	}
	if c.Duration <= 0 {
		c.Duration = 8 * trace.Hour
	}
	if math.IsNaN(c.UserScale) || math.IsInf(c.UserScale, 0) {
		return fmt.Errorf("workload: user scale %v is not finite", c.UserScale)
	}
	if c.UserScale <= 0 {
		c.UserScale = 1.0
	}
	if c.Shards < 0 {
		return fmt.Errorf("workload: negative shard count %d", c.Shards)
	}
	return nil
}

// Profile describes one traced machine's population.
type Profile struct {
	// Name is the trace name the paper uses.
	Name string
	// Machine is the host the trace came from.
	Machine string
	// Developers, Office, and CAD are the user counts by type.
	Developers int
	Office     int
	CAD        int
	// StatusFiles is the number of host status files the network daemon
	// rewrites every StatusInterval.
	StatusFiles    int
	StatusInterval trace.Time
}

// Users returns the total user population.
func (p Profile) Users() int { return p.Developers + p.Office + p.CAD }

var profiles = map[string]Profile{
	// Ucbarpa: graduate students and staff, program development and
	// document formatting. 4 Mbytes of memory, load average 5-10.
	"A5": {
		Name: "A5", Machine: "Ucbarpa",
		Developers: 20, Office: 8, CAD: 0,
		StatusFiles: 20, StatusInterval: 180 * trace.Second,
	},
	// Ucbernie: like Ucbarpa plus substantial secretarial and
	// administrative work. 8 Mbytes of memory.
	"E3": {
		Name: "E3", Machine: "Ucbernie",
		Developers: 16, Office: 16, CAD: 0,
		StatusFiles: 20, StatusInterval: 180 * trace.Second,
	},
	// Ucbcad: electrical engineering students running VLSI CAD tools.
	// 16 Mbytes of memory, load average 2-3, about ten active users.
	"C4": {
		Name: "C4", Machine: "Ucbcad",
		Developers: 4, Office: 2, CAD: 8,
		StatusFiles: 20, StatusInterval: 180 * trace.Second,
	},
}

// Profiles returns the three machine profiles keyed by trace name.
func Profiles() map[string]Profile {
	out := make(map[string]Profile, len(profiles))
	for k, v := range profiles {
		out[k] = v
	}
	return out
}

// Result is a generated trace plus bookkeeping that tests and tools use.
type Result struct {
	// Events is the trace, in non-decreasing time order.
	Events []trace.Event
	// Profile is the population that generated it.
	Profile Profile
	// KernelStats counts the system calls the workload actually made.
	KernelStats kernel.Stats
	// StaticSizes holds the size of every live regular file when the
	// trace ended, in ascending order (for a sharded run, each shard's
	// run of sizes in shard order): a Satyanarayanan-style static disk
	// scan, which the paper compares its dynamic access measurements
	// against (§5.2).
	StaticSizes []int64
}

// scaledProfile returns the named profile with its user population
// multiplied by cfg.UserScale. Each nonzero class keeps at least one user.
func scaledProfile(cfg Config) Profile {
	prof := profiles[cfg.Profile]
	scale := func(n int) int {
		s := int(float64(n)*cfg.UserScale + 0.5)
		if n > 0 && s < 1 {
			s = 1
		}
		return s
	}
	prof.Developers = scale(prof.Developers)
	prof.Office = scale(prof.Office)
	prof.CAD = scale(prof.CAD)
	return prof
}

// Generate produces a synthetic trace for the given configuration,
// materialized in memory. It is GenerateStream collecting into a slice;
// scale-sensitive callers should use GenerateStream and consume events as
// they are emitted instead.
func Generate(cfg Config) (*Result, error) {
	var events []trace.Event
	res, err := GenerateStream(cfg, func(e trace.Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Events = events
	return res, nil
}

// Sink consumes generated events in non-decreasing time order. A sink
// error aborts emission and is returned from GenerateStream.
type Sink func(trace.Event) error

// GenerateStream produces a synthetic trace, delivering every event to
// sink in time order instead of materializing the trace. A nil sink
// discards the events (useful when only Result bookkeeping — kernel
// stats, the static size scan, an attached Meta hook — is wanted). The
// returned Result has a nil Events field.
//
// With cfg.Shards > 1 the population generates as that many concurrent
// independent shards whose streams merge (with identifier remapping)
// before reaching the sink; memory stays bounded by the per-shard channel
// buffers no matter how long the trace runs.
func GenerateStream(cfg Config, sink Sink) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return generateSharded(cfg, sink)
	}
	return generateProfile(cfg, scaledProfile(cfg), sink)
}

// generateProfile runs one machine: the full event-driven simulation of
// prof's population against one kernel and file system.
func generateProfile(cfg Config, prof Profile, sink Sink) (*Result, error) {
	g := &generator{
		cfg:  cfg,
		prof: prof,
		eng:  sim.New(),
		src:  dist.NewSource(cfg.Seed),
	}
	// The first sink error stops the simulation: nothing after it would
	// be delivered, so simulating on to the deadline is wasted work.
	var sinkErr error
	emit := func(e trace.Event) {
		if sinkErr != nil || sink == nil {
			return
		}
		if sinkErr = sink(e); sinkErr != nil {
			g.eng.Stop()
		}
	}
	fs := vfs.New()
	g.k = kernel.New(fs, g.eng.Now, emit)
	if cfg.Meta != nil {
		g.k.SetMeta(cfg.Meta)
	}
	g.buildImage(fs)
	g.startDaemons()
	g.startUsers()
	g.eng.Run(cfg.Duration)
	if sinkErr != nil {
		return nil, sinkErr
	}

	// Files enter only through the image and Create and leave only
	// through Unlink, so this bounds the live files and the scan never
	// regrows its slice.
	static := make([]int64, 0, g.img.files+int(g.k.Stats.Creates-g.k.Stats.Unlinks))
	fs.Walk(func(n *vfs.Inode) {
		if !n.IsDir() {
			static = append(static, n.Size())
		}
	})
	slices.Sort(static) // the walk's order is arbitrary

	return &Result{Profile: prof, KernelStats: g.k.Stats, StaticSizes: static}, nil
}

// generator holds the live state while a trace is being produced. Opens
// still outstanding when the run's deadline arrives are simply left open,
// as a live machine's trace also ends with a few files open.
type generator struct {
	cfg  Config
	prof Profile
	eng  *sim.Engine
	k    *kernel.Kernel
	src  *dist.Source
	img  image
	free *task // tasks that have run, for reuse
}
