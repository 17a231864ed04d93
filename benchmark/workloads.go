package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bsdtrace/internal/workload"
)

// workloadSpec is one benchmark workload. README.md records why each
// was chosen and which layers it should and should not stress.
type workloadSpec struct {
	name string
	// duration is the simulated time the workload's traces span.
	duration time.Duration
	// census is the workload's A5 machine: the generation the traced
	// run repeats in-process. Seed and Duration are filled per run.
	census workload.Config
	// start prepares a run and returns its phases; work it does (such
	// as building serve's reference streams) is neither set-up nor
	// repetition and is not timed.
	start func(r *runner) (phases, error)
}

var workloads = []workloadSpec{
	{
		// The reproduction users run; it touches every layer.
		name: "report-8h", duration: 8 * time.Hour,
		census: workload.Config{Profile: "A5", UserScale: 1},
		start:  startReport,
	},
	{
		// Generation and analysis only: the control for cachesim changes.
		// Unsharded: on two shared vCPUs, two statically split shards
		// wait for the slower vCPU, which made some runs half again as
		// slow.
		name: "fleet-x16", duration: 8 * time.Hour,
		census: workload.Config{Profile: "A5", UserScale: 16},
		start:  startFleet,
	},
	{
		// Decode, tape and cache replay only: the control for generation
		// changes.
		name: "cache-sweeps", duration: 8 * time.Hour,
		census: workload.Config{Profile: "A5", UserScale: 2},
		start:  startCacheSweeps,
	},
	{
		// Encode, fan-out, HTTP and resume: the serving direction.
		name: "serve", duration: 24 * time.Hour,
		census: workload.Config{Profile: "A5", UserScale: 8, Shards: 2},
		start:  startServe,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(name string) ([]workloadSpec, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadSpec{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, strings.Join(workloadNames(), ", "))
}

// A run measures inputs inputs, made from its seed: input i is the
// workload at program seed seed + i*inputStride, so input 0 is the seed
// itself. Set-up i prepares input i; repetition n runs input n mod
// inputs. A program's cost varies from seed to seed by as much as the
// host's noise, so one run covers several seeds and its medians do not
// hang on one lucky or unlucky trace.
const (
	inputs      = 3
	inputStride = 1 << 20
	// maxReps caps the repetitions of one run whatever -seconds says.
	maxReps = 1000
)

// phases are a workload's timed steps on input i. Each returns what it
// measured of the program, so checking work the benchmark does
// afterwards is not counted.
type phases struct {
	setup func(i int) (sample, error)
	rep   func(i int) (sample, error)
	// info returns numbers reported beside the metrics; nil for none.
	info func() map[string]stat
}

// sample is one timed run of the program under test.
type sample struct {
	wall  time.Duration
	rssKB int64 // peak resident set of the CLI or daemon
}

// runner carries one workload run.
type runner struct {
	opts  options
	bin   string // the built CLIs
	dir   string // this run's scratch directory
	spec  workloadSpec
	log   io.Writer
	tally tally
}

// seed is input i's program seed.
func (r *runner) seed(i int) int64 { return r.opts.seed + int64(i)*inputStride }

func (r *runner) seedArg(i int) string { return strconv.FormatInt(r.seed(i), 10) }

// simDuration is the simulated time of the workload's traces.
func (r *runner) simDuration() time.Duration {
	if r.opts.duration > 0 {
		return r.opts.duration
	}
	return r.spec.duration
}

// command prepares a CLI to run in the scratch directory, with its
// temp files kept there too.
func (r *runner) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(r.bin, name), args...)
	cmd.Dir = r.dir
	cmd.Env = append(os.Environ(), "TMPDIR="+r.dir)
	cmd.SysProcAttr = childAttr()
	return cmd
}

// cli runs one CLI to completion and returns its standard output.
func (r *runner) cli(name string, args ...string) ([]byte, sample, error) {
	cmd := r.command(name, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(t)}
	if err != nil {
		return nil, s, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	s.rssKB = maxRSS(cmd.ProcessState)
	return out.Bytes(), s, nil
}

// maxRSS is a finished process's peak resident set in kilobytes. On
// Linux a child's figure is at least the benchmark's own peak before the
// exec, so it is true only while the benchmark stays smaller than the
// CLIs it runs, as it does on the CLI workloads; serve, which holds its
// reference streams, reads the daemon's own peak instead (peakRSS).
func maxRSS(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return int64(ru.Maxrss)
	}
	return 0
}

// measure runs a workload's repetitions, cycling through the inputs,
// until the measuring time, which covers the set-ups too, is spent, and
// summarises them. A run thus lasts about -seconds whatever the host's
// speed; a slow host gets fewer repetitions. Set-up i runs just before
// input i's first repetition, so set-ups and repetitions are spread over
// the same stretch of the host's fast and slow spells. An input whose
// set-up failed is not repeated.
func measure(r *runner) (metrics, info map[string]stat, err error) {
	start, budget := time.Now(), time.Duration(r.opts.seconds*float64(time.Second))
	calib := []float64{calibrate(), calibrate(), calibrate()}
	p, err := r.spec.start(r)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", r.spec.name, err)
	}
	var setups, walls, rss []float64
	var ready [inputs]bool
	var reps int
	var repTime time.Duration
	for n := 0; n < maxReps; n++ {
		i := n % inputs
		if n < inputs {
			s, err := p.setup(i)
			r.tally.record(err)
			if err == nil {
				setups = append(setups, s.wall.Seconds())
				ready[i] = true
			}
			r.logSample("setup", i, i, s, err)
		}
		if ready[i] {
			t := time.Now()
			s, err := p.rep(i)
			repTime += time.Since(t)
			reps++
			r.tally.record(err)
			if err == nil {
				walls = append(walls, s.wall.Seconds())
				rss = append(rss, float64(s.rssKB)/1024)
			}
			r.logSample("rep", reps, i, s, err)
		}
		// Once every input is set up, start another repetition only if
		// it should end in time.
		if n+1 >= inputs && (reps == 0 || time.Since(start)+repTime/time.Duration(reps) > budget) {
			break
		}
	}
	metrics = map[string]stat{
		"wall_s":      summarize("s", walls),
		"peak_rss_mb": summarize("MB", rss),
		"setup_s":     summarize("s", setups),
	}
	info = map[string]stat{"host.calib_s": summarize("s", calib)}
	if p.info != nil {
		for k, v := range p.info() {
			info[k] = v
		}
	}
	return metrics, info, nil
}

func (r *runner) logSample(phase string, n, i int, s sample, err error) {
	head := fmt.Sprintf("%s %s %d (seed %d)", r.spec.name, phase, n, r.seed(i))
	if err != nil {
		fmt.Fprintf(r.log, "%s: FAILED after %.3fs: %v\n", head, s.wall.Seconds(), err)
		return
	}
	fmt.Fprintf(r.log, "%s: %.3fs, %.1f MB\n", head, s.wall.Seconds(), float64(s.rssKB)/1024)
}

// sameOutput checks the outputs of one input: each must hold every
// marker, equal the golden when there is one, and equal the input's
// first output byte for byte.
type sameOutput struct {
	what    string
	markers []string
	golden  []byte
	first   []byte
}

func (c *sameOutput) check(out []byte) error {
	for _, m := range c.markers {
		if !bytes.Contains(out, []byte(m)) {
			return fmt.Errorf("%s: output lacks %q", c.what, m)
		}
	}
	if c.golden != nil && !bytes.Equal(out, c.golden) {
		return fmt.Errorf("%s: output differs from the golden", c.what)
	}
	if c.first == nil {
		c.first = out
		return nil
	}
	if !bytes.Equal(out, c.first) {
		return fmt.Errorf("%s: output differs from the first run's", c.what)
	}
	return nil
}

// checks makes one sameOutput per input.
func checks(what string, markers ...string) []*sameOutput {
	cs := make([]*sameOutput, inputs)
	for i := range cs {
		cs[i] = &sameOutput{what: what, markers: markers}
	}
	return cs
}

// fsreportPhases runs the same fsreport command as set-up and as
// repetition: there is nothing to prepare, so a set-up is the input's
// cold first run, whose output every later run must reproduce.
func fsreportPhases(r *runner, cs []*sameOutput, args ...string) phases {
	one := func(i int) (sample, error) {
		out, s, err := r.cli("fsreport", append(args, "-seed", r.seedArg(i))...)
		if err == nil {
			err = cs[i].check(out)
		}
		return s, err
	}
	return phases{setup: one, rep: one}
}

func startReport(r *runner) (phases, error) {
	d := r.simDuration()
	cs := checks("fsreport", "Table VI.", "Ablation A4.")
	golden := r.opts.golden
	if golden == "" && r.seed(0) == 1 && d == 8*time.Hour {
		golden = filepath.Join(r.opts.root, "docs", "report-8h-seed1.txt")
	}
	if golden != "" {
		data, err := os.ReadFile(golden)
		if err != nil {
			return phases{}, err
		}
		cs[0].golden = data
	}
	return fsreportPhases(r, cs, "-duration", d.String(), "-ablations"), nil
}

func startFleet(r *runner) (phases, error) {
	cs := checks("fsreport", "Scaled fleet: 16x", "Table III.")
	return fsreportPhases(r, cs, "-duration", r.simDuration().String(), "-scale", "16", "-only", "tableIII"), nil
}

// startCacheSweeps: set-up i writes input i's A5 trace file with
// fstrace; a repetition replays the file through both fscachesim sweeps.
func startCacheSweeps(r *runner) (phases, error) {
	zoo := checks("fscachesim -sweep zoo", "Policy zoo:")
	vii := checks("fscachesim -sweep tableVII", "Table VII.")
	path := func(i int) string { return filepath.Join(r.dir, fmt.Sprintf("a5-%d.trace", i)) }
	setup := func(i int) (sample, error) {
		out, s, err := r.cli("fstrace", "-profile", "A5", "-duration", r.simDuration().String(), "-scale", "2",
			"-seed", r.seedArg(i), "-o", path(i))
		if err != nil {
			return s, err
		}
		if !bytes.Contains(out, []byte("events:")) {
			return s, fmt.Errorf("fstrace: no event summary in %q", out)
		}
		return s, nil
	}
	rep := func(i int) (sample, error) {
		var total sample
		for _, sw := range []struct {
			name string
			c    *sameOutput
		}{{"zoo", zoo[i]}, {"tableVII", vii[i]}} {
			out, s, err := r.cli("fscachesim", "-sweep", sw.name, path(i))
			total.wall += s.wall
			total.rssKB = max(total.rssKB, s.rssKB)
			if err == nil {
				err = sw.c.check(out)
			}
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	return phases{setup: setup, rep: rep}, nil
}
