// Command adeserved is the long-running ADE compile-and-execute
// daemon: it accepts MEMOIR (.mir) programs over HTTP, compiles them
// through the full ADE pipeline, and executes them on the bytecode VM
// under per-request QoS budgets. Compiled artifacts live in a
// content-addressed cache keyed by (canonical program hash, options
// fingerprint), so repeat requests skip parse + ADE + compile.
//
// Usage:
//
//	adeserved                          # serve on :8372
//	adeserved -addr :9000 -workers 8
//	adeserved -chaos                   # in-process chaos harness, then exit
//
// Endpoints:
//
//	POST /v1/run      compile (cached) and execute; JSON body or raw
//	                  .mir with query params (see README)
//	POST /v1/compile  compile (cached) only
//	GET  /v1/stats    cache ratios, phase counters, latency, telemetry
//	GET  /v1/profile  live adeprofile/v1 merged from recorded runs
//	GET  /healthz     liveness
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memoir/internal/server"
	"memoir/internal/server/loadtest"
)

func main() {
	def := server.DefaultConfig()
	var (
		addr         = flag.String("addr", def.Addr, "listen address")
		workers      = flag.Int("workers", def.Workers, "worker-pool size (compile/execute concurrency)")
		backlog      = flag.Int("backlog", def.Backlog, "queued requests beyond the workers before shedding 503 (negative = none)")
		cacheEntries = flag.Int("cache-entries", def.CacheEntries, "max compiled artifacts in the cache")
		cacheBytes   = flag.Int64("cache-bytes", def.CacheBytes, "max modeled bytes of cached artifacts")
		maxBody      = flag.Int64("max-body", def.MaxBodyBytes, "max request body bytes")
		maxProgram   = flag.Int("max-program", def.MaxProgramBytes, "max .mir program bytes inside a request")
		maxSteps     = flag.Uint64("max-steps", def.DefaultMaxSteps, "default per-request step budget")
		ceilSteps    = flag.Uint64("ceil-steps", def.CeilMaxSteps, "hard per-request step ceiling (requests are clamped)")
		maxMem       = flag.Int64("max-mem", def.DefaultMaxMem, "default per-request modeled-memory budget, bytes")
		ceilMem      = flag.Int64("ceil-mem", def.CeilMaxMem, "hard per-request memory ceiling, bytes")
		timeout      = flag.Duration("timeout", def.DefaultTimeout, "default per-request deadline")
		ceilTimeout  = flag.Duration("ceil-timeout", def.CeilTimeout, "hard per-request deadline ceiling")
		sandbox      = flag.Bool("sandbox", def.Sandbox, "run ADE sub-passes sandboxed with rollback (production posture)")
		profSample   = flag.Int("profile-sample", def.ProfileSample, "record telemetry on every Nth executed request and fold it into the live profile at GET /v1/profile (0 = opt-in telemetry only)")
		accessLog    = flag.String("access-log", "-", "structured JSON access log: \"-\" = stdout, \"\" = off, else a file path")

		storeDir    = flag.String("store", "", "durable artifact/profile store directory (empty = in-memory only)")
		persistProf = flag.Bool("persist-profile", false, "snapshot the live fleet profile into the store and merge it back on restart (requires -store)")
		profSnap    = flag.Duration("profile-snapshot", def.ProfileSnapshotEvery, "periodic profile snapshot interval (<0 = on-drain only)")
		qThreshold  = flag.Int("quarantine-threshold", def.BreakerThreshold, "circuit breaker: consecutive panics/budget blowouts before a program hash is quarantined (<0 = disabled)")
		qBackoff    = flag.Duration("quarantine-backoff", def.BreakerBackoff, "circuit breaker: first open interval; doubles per re-trip")
		qMaxBackoff = flag.Duration("quarantine-max-backoff", def.BreakerMaxBackoff, "circuit breaker: open interval cap")
		storeFault  = flag.String("store-fault", "", "inject a deterministic store I/O fault (write-fail:N|torn-write:N|corrupt-on-read:N) — tests only")

		chaos = flag.Bool("chaos", false, "run the in-process chaos harness (500 requests across store faults and hard restarts; -store sets its directory) and exit")
	)
	flag.Parse()
	if *chaos {
		os.Exit(runChaos(*storeDir))
	}

	cfg := def
	cfg.Addr = *addr
	cfg.Workers = *workers
	cfg.Backlog = *backlog
	cfg.CacheEntries = *cacheEntries
	cfg.CacheBytes = *cacheBytes
	cfg.MaxBodyBytes = *maxBody
	cfg.MaxProgramBytes = *maxProgram
	cfg.DefaultMaxSteps = *maxSteps
	cfg.CeilMaxSteps = *ceilSteps
	cfg.DefaultMaxMem = *maxMem
	cfg.CeilMaxMem = *ceilMem
	cfg.DefaultTimeout = *timeout
	cfg.CeilTimeout = *ceilTimeout
	cfg.Sandbox = *sandbox
	cfg.ProfileSample = *profSample
	cfg.StoreDir = *storeDir
	cfg.PersistProfile = *persistProf
	cfg.ProfileSnapshotEvery = *profSnap
	cfg.BreakerThreshold = *qThreshold
	cfg.BreakerBackoff = *qBackoff
	cfg.BreakerMaxBackoff = *qMaxBackoff
	cfg.StoreFault = *storeFault

	var logClose io.Closer
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		cfg.AccessLog = f
		logClose = f
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "adeserved listening on %s (workers=%d cache=%d entries/%d MiB sandbox=%t)\n",
		cfg.Addr, cfg.Workers, cfg.CacheEntries, cfg.CacheBytes>>20, cfg.Sandbox)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "adeserved: %v; draining in-flight requests\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "adeserved: shutdown: %v\n", err)
		}
		if logClose != nil {
			logClose.Close()
		}
		cs := s.CacheStats()
		fmt.Fprintf(os.Stderr, "adeserved: bye (cache: %d hits, %d misses, %.1f%% hit ratio)\n",
			cs.Hits, cs.Misses, 100*cs.HitRatio())
	}
}

// runChaos runs the chaos harness: 500 interleaved requests (its
// default schedule), injected store faults, and hard server restarts
// against one durable store directory. Exit status 1 if ANY answer was
// wrong, or if the restarts demonstrably failed to recover state (no
// recovered hits).
func runChaos(storeDir string) int {
	cleanup := false
	if storeDir == "" {
		d, err := os.MkdirTemp("", "adeserved-chaos-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			return 1
		}
		storeDir = d
		cleanup = true
	}
	rep, err := loadtest.RunChaos(loadtest.ChaosConfig{StoreDir: storeDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 1
	}
	fmt.Print(loadtest.FormatChaos(rep))
	ok := true
	if rep.Wrong != 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d WRONG answers — crash safety is broken\n", rep.Wrong)
		ok = false
	}
	if rep.RecoveredHits == 0 {
		fmt.Fprintln(os.Stderr, "chaos: no recovered hits — restarts never served from recovered state")
		ok = false
	}
	if cleanup && ok {
		os.RemoveAll(storeDir)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "chaos: store left at %s for inspection\n", storeDir)
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adeserved:", err)
	os.Exit(1)
}
