// Command fstraced is a long-running trace service: it generates a
// v2-framed BSD trace stream from the sharded workload engine and
// serves it live to any number of HTTP clients (with per-client
// backpressure and checkpoint-based mid-stream join), accepts trace
// uploads for online analysis, and publishes rolling Section-5 results
// and pipeline metrics while it runs. See DESIGN.md §10.
//
// The daemon is crash-recoverable and self-protecting (DESIGN.md §12):
// with -state it checkpoints the online analysis periodically and at
// graceful shutdown, and -resume continues a killed run from the last
// checkpoint with a final report byte-identical to an uninterrupted
// one. Slow stream consumers are evicted after -stall, excess ingest
// load is shed with 429, and all HTTP I/O is under deadlines.
//
// Usage:
//
//	fstraced [-addr host:port] [-profile A5|E3|C4] [-seed N]
//	         [-duration 8h] [-scale F] [-shards N]
//	         [-checkpoint N] [-retain N] [-pace F]
//	         [-manifest FILE] [-snapshot 5s] [-debug-addr host:port]
//	         [-state FILE] [-resume] [-stall 5s] [-max-ingest N]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bsdtrace/internal/obs"
	"bsdtrace/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("fstraced", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8324", "listen address for the service")
	debugAddr := fs.String("debug-addr", "", "optional extra address for /debug/vars and /debug/pprof (also mounted on -addr)")
	profile := fs.String("profile", "A5", "workload profile: A5, E3, or C4")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	duration := fs.Duration("duration", 8*time.Hour, "simulated trace duration")
	scale := fs.Float64("scale", 1.0, "user population scale factor")
	shards := fs.Int("shards", 1, "workload generator shards")
	checkpoint := fs.Int("checkpoint", 1024, "records per checkpoint segment (= per stream chunk)")
	retain := fs.Int("retain", 16, "sealed chunks retained for late joiners")
	pace := fs.Float64("pace", 0, "simulated seconds generated per wall second (0 = full speed)")
	manifest := fs.String("manifest", "", "write periodic run-manifest snapshots to this file")
	snapshot := fs.Duration("snapshot", 5*time.Second, "manifest and state checkpoint interval")
	state := fs.String("state", "", "checkpoint resumable daemon state to this file")
	resume := fs.Bool("resume", false, "resume from the -state checkpoint if present")
	stall := fs.Duration("stall", 5*time.Second, "stall budget before a slow stream client is evicted")
	maxIngest := fs.Int("max-ingest", 4, "concurrent ingest uploads before load is shed with 429")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	badScale := *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 1)
	if *pace < 0 || *shards < 1 || badScale || *duration <= 0 || *checkpoint < 1 || *retain < 1 {
		fmt.Fprintln(os.Stderr, "fstraced: -pace, -shards, -scale, -duration, -checkpoint, -retain must be positive")
		return 2
	}
	if *stall <= 0 || *maxIngest < 1 {
		fmt.Fprintln(os.Stderr, "fstraced: -stall and -max-ingest must be positive")
		return 2
	}
	if *resume && *state == "" {
		fmt.Fprintln(os.Stderr, "fstraced: -resume requires -state")
		return 2
	}

	cfg := config{
		profile:   *profile,
		seed:      *seed,
		duration:  trace.Time(duration.Milliseconds()),
		scale:     *scale,
		shards:    *shards,
		interval:  *checkpoint,
		retain:    *retain,
		pace:      *pace,
		manifest:  *manifest,
		snapshot:  *snapshot,
		state:     *state,
		stall:     *stall,
		maxIngest: *maxIngest,
	}
	d := newDaemon(cfg)
	if *resume {
		switch st, err := loadCheckpoint(*state, cfg); {
		case err == nil:
			d.restore(st)
			fmt.Fprintf(stdout, "fstraced: resuming at record %d (t=%v) from %s\n",
				st.events, st.lastTime, *state)
		case os.IsNotExist(err):
			fmt.Fprintf(stdout, "fstraced: no checkpoint at %s, starting fresh\n", *state)
		default:
			// A corrupt or mismatched checkpoint must not be silently
			// discarded by starting over: the operator decides.
			fmt.Fprintf(os.Stderr, "fstraced: resume: %v\n", err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fstraced: listen %s: %v\n", *addr, err)
		return 1
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, d.reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fstraced: debug server on %s: %v\n", *debugAddr, err)
			return 1
		}
		fmt.Fprintf(stdout, "fstraced: debug on http://%s/debug/vars\n", dbg)
	}

	d.start()
	// Global read/write timeouts would kill the long-lived /stream
	// responses; instead the server bounds header reads and idle
	// keep-alives here, and the handlers set per-I/O deadlines via
	// ResponseController.
	srv := &http.Server{
		Handler:           d.mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "fstraced: serving %s seed %d (%s simulated) on http://%s/\n",
		cfg.profile, cfg.seed, cfg.duration, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "fstraced: %v, shutting down\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "fstraced: serve: %v\n", err)
		d.stop()
		return 1
	}

	// Shutdown order matters: stop generation first so streams can end,
	// give in-flight responses a grace period, then force-close anything
	// still connected (a stalled client would otherwise hold the
	// backpressured pipeline open forever), and only then wait for the
	// pipeline goroutines. Once the pipeline has quiesced, flush the
	// final state checkpoint: an interrupted run leaves its exact resume
	// point on disk.
	d.stopped.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	d.stop()
	if cfg.state != "" {
		switch err := d.writeCheckpoint(); err {
		case nil:
			fmt.Fprintf(stdout, "fstraced: state checkpointed to %s\n", cfg.state)
		case errCkptFinished:
			fmt.Fprintln(stdout, "fstraced: run complete; checkpoint not needed")
		default:
			fmt.Fprintf(os.Stderr, "fstraced: final checkpoint: %v\n", err)
		}
	}
	fmt.Fprintln(stdout, "fstraced: stopped")
	return 0
}
