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
//	adeserved -selftest                # in-process load harness, then exit
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

		selftest   = flag.Bool("selftest", false, "run the in-process load harness (cold/hot/mixed phases) and exit")
		chaos      = flag.Bool("chaos", false, "with -selftest: run the chaos harness (store faults + hard restarts) instead of the load phases")
		stRequests = flag.Int("selftest-requests", 200, "selftest: requests per phase (chaos: total across epochs, min 500)")
		stConc     = flag.Int("selftest-concurrency", 8, "selftest: concurrent clients")
	)
	flag.Parse()

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

	if *selftest {
		cfg.AccessLog = nil
		if *chaos {
			os.Exit(runChaosSelftest(*stRequests, *stConc, *storeDir))
		}
		os.Exit(runSelftest(cfg, *stRequests, *stConc))
	}

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

// runSelftest runs the load harness against an in-process handler and
// prints the phase table; exit status 1 if the cache demonstrably did
// not work (hot phase must be all hits, cold all misses).
func runSelftest(cfg server.Config, requests, concurrency int) int {
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: %v\n", err)
		return 1
	}
	defer s.Shutdown(context.Background())
	phases, err := loadtest.Run(s.Handler(), loadtest.Config{
		Requests:    requests,
		Concurrency: concurrency,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "selftest: %v\n", err)
		return 1
	}
	fmt.Printf("adeserved selftest: %d requests/phase, %d clients\n\n",
		requests, concurrency)
	fmt.Print(loadtest.Format(phases))
	cs := s.CacheStats()
	fmt.Printf("\ncache: %d hits, %d misses, %d evictions, %d entries, %.1f%% hit ratio\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries, 100*cs.HitRatio())
	ok := true
	for _, p := range phases {
		if p.Errors > 0 {
			fmt.Fprintf(os.Stderr, "selftest: phase %s had %d errors\n", p.Name, p.Errors)
			ok = false
		}
		switch p.Name {
		case "hot":
			if p.CacheHits != p.Requests {
				fmt.Fprintf(os.Stderr, "selftest: hot phase hit %d/%d — cache not working\n", p.CacheHits, p.Requests)
				ok = false
			}
		case "cold":
			if p.CacheHits != 0 {
				fmt.Fprintf(os.Stderr, "selftest: cold phase hit the cache %d times — noCache broken\n", p.CacheHits)
				ok = false
			}
		}
	}
	if !ok {
		return 1
	}
	var cold, hot loadtest.Phase
	for _, p := range phases {
		if p.Name == "cold" {
			cold = p
		}
		if p.Name == "hot" {
			hot = p
		}
	}
	if cold.ReqPerSec > 0 {
		fmt.Printf("hot/cold throughput: %.2fx\n", hot.ReqPerSec/cold.ReqPerSec)
	}
	return 0
}

// runChaosSelftest runs the chaos harness: interleaved requests,
// injected store faults, and hard server restarts against one durable
// store directory. Exit status 1 if ANY answer was wrong, or if the
// restarts demonstrably failed to recover state (no recovered hits).
func runChaosSelftest(requests, concurrency int, storeDir string) int {
	if requests < 500 {
		requests = 500 // the acceptance floor: ≥500 interleaved requests
	}
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
	rep, err := loadtest.RunChaos(loadtest.ChaosConfig{
		Requests:    requests,
		Concurrency: concurrency,
		StoreDir:    storeDir,
	})
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
