// Package server implements adeserved: a long-running HTTP service
// that compiles .mir programs through the full ADE pipeline and
// executes them on the bytecode VM under per-request QoS budgets.
//
// The core of the subsystem is a content-addressed compiled-artifact
// cache (internal/server/cache) keyed by (ir.ProgramHash,
// core.Options.Fingerprint): the first request for a program pays
// parse + ADE + bytecode compile; every subsequent request for the
// same canonical program and options executes straight from the
// cached artifact. A raw-text alias index makes byte-identical repeat
// requests skip even the parse.
//
// Production posture (all from PR 5): requests run with step, memory,
// and deadline budgets clamped to server ceilings; ADE sub-passes run
// sandboxed with rollback; the parser is the fuzz-hardened untrusted
// boundary, and the request decoder added here is the second one. All
// work runs on a bounded worker pool with panic containment, and
// shutdown drains in-flight requests before exiting.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"memoir/internal/bytecode"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/remarks"
	"memoir/internal/server/cache"
	"memoir/internal/server/store"
	"memoir/internal/telemetry"
	"memoir/internal/vm"
)

// Config configures the daemon. Zero values take the DefaultConfig
// defaults where noted.
type Config struct {
	// Addr is the listen address (ListenAndServe).
	Addr string

	// Workers is the worker-pool size; Backlog the extra queue depth
	// beyond the workers before load shedding.
	Workers int
	Backlog int

	// CacheEntries / CacheBytes bound the compiled-artifact cache.
	CacheEntries int
	CacheBytes   int64

	// MaxBodyBytes caps the raw request body; MaxProgramBytes caps
	// the .mir program inside it.
	MaxBodyBytes    int64
	MaxProgramBytes int

	// Per-request QoS: defaults apply when the request names none;
	// ceilings clamp whatever the request asks for.
	DefaultMaxSteps uint64
	CeilMaxSteps    uint64
	DefaultMaxMem   int64
	CeilMaxMem      int64
	DefaultTimeout  time.Duration
	CeilTimeout     time.Duration

	// Sandbox runs ADE sub-passes sandboxed with rollback (the
	// production posture; see core.Options.Sandbox).
	Sandbox bool

	// ProfileSample, when > 0, records telemetry on every Nth executed
	// request (in addition to opt-in telemetry requests) and folds it
	// into the live adeprofile served at GET /v1/profile. 0 disables
	// sampling; opt-in recordings still fold.
	ProfileSample int

	// StoreDir, when non-empty, enables the durable artifact/profile
	// store (internal/server/store) rooted there: compiled artifacts
	// persist across restarts, recovery re-verifies and warms the
	// cache, and corrupt entries are quarantined.
	StoreDir string
	// PersistProfile snapshots the live fleet profile into the store
	// (periodically and on drain) and merges it back on restart.
	// Requires StoreDir.
	PersistProfile bool
	// ProfileSnapshotEvery is the periodic profile-snapshot interval;
	// 0 takes the default, < 0 disables the ticker (on-drain snapshots
	// still happen).
	ProfileSnapshotEvery time.Duration
	// StoreFault names a deterministic I/O fault point (faults
	// write-fail:N / torn-write:N / corrupt-on-read:N) wired into the
	// store — chaos mode and tests only.
	StoreFault string

	// BreakerThreshold is the circuit breaker's consecutive-bad-run
	// trip count per program hash; 0 takes the default, < 0 disables
	// the breaker. BreakerBackoff is the first open interval, doubling
	// per re-trip up to BreakerMaxBackoff.
	BreakerThreshold  int
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration

	// AccessLog receives one structured JSON line per request; nil
	// disables access logging.
	AccessLog io.Writer
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Addr:            ":8372",
		Workers:         4,
		Backlog:         64,
		CacheEntries:    256,
		CacheBytes:      64 << 20,
		MaxBodyBytes:    1 << 20,
		MaxProgramBytes: 512 << 10,
		DefaultMaxSteps: 10_000_000,
		CeilMaxSteps:    100_000_000,
		DefaultMaxMem:   64 << 20,
		CeilMaxMem:      256 << 20,
		DefaultTimeout:  5 * time.Second,
		CeilTimeout:     30 * time.Second,
		Sandbox:         true,

		ProfileSnapshotEvery: 30 * time.Second,
		BreakerThreshold:     3,
		BreakerBackoff:       time.Second,
		BreakerMaxBackoff:    60 * time.Second,
	}
}

// artifact is one cached compile result: the verified bytecode
// (immutable, shared by concurrent VMs) and what the compile reported.
type artifact struct {
	key      cache.Key
	bc       *bytecode.Prog
	degraded []string
	classes  int
	size     int64
}

// Server is the adeserved daemon.
type Server struct {
	cfg   Config
	cache *cache.Cache
	pool  *Pool
	http  *http.Server
	start time.Time

	phases   PhaseCounters
	hist     *latencyHist
	errCodes *errCodeCounters
	teleAgg  *teleAggregate
	prof     *liveProfile

	// Durability & self-protection (nil / disabled without StoreDir).
	store   *store.Store
	breaker *breaker
	// storeLoads counts artifacts re-materialized from disk after an
	// in-memory miss — deliberately separate from the phase counters,
	// which track pipeline work only (a disk load never re-runs ADE).
	storeLoads atomicCounter
	// recoveredArtifacts / recoveredQuarantined are the startup
	// recovery tallies (written once in New, before serving).
	recoveredArtifacts   int
	recoveredQuarantined int
	snapStop             chan struct{}
	snapDone             chan struct{}
	snapOnce             sync.Once

	reqTotal  atomicCounter
	reqOK     atomicCounter
	cacheRuns atomicCounter // runs served from a cached artifact

	logMu sync.Mutex
	reqID atomicCounter
}

// New builds a Server from cfg (zero fields defaulted). With a
// StoreDir, it opens the durable store and runs crash recovery before
// any request can be served: every persisted artifact is re-verified
// (parse → IR verify → bytecode compile → bytecode verify) and either
// warms the in-memory cache or is quarantined.
func New(cfg Config) (*Server, error) {
	def := DefaultConfig()
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.Backlog == 0 {
		cfg.Backlog = def.Backlog
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0 // explicit "no queue beyond the workers"
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = def.CacheEntries
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	if cfg.MaxProgramBytes == 0 {
		cfg.MaxProgramBytes = def.MaxProgramBytes
	}
	if cfg.DefaultMaxSteps == 0 {
		cfg.DefaultMaxSteps = def.DefaultMaxSteps
	}
	if cfg.CeilMaxSteps == 0 {
		cfg.CeilMaxSteps = def.CeilMaxSteps
	}
	if cfg.DefaultMaxMem == 0 {
		cfg.DefaultMaxMem = def.DefaultMaxMem
	}
	if cfg.CeilMaxMem == 0 {
		cfg.CeilMaxMem = def.CeilMaxMem
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = def.DefaultTimeout
	}
	if cfg.CeilTimeout == 0 {
		cfg.CeilTimeout = def.CeilTimeout
	}
	if cfg.ProfileSnapshotEvery == 0 {
		cfg.ProfileSnapshotEvery = def.ProfileSnapshotEvery
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = def.BreakerThreshold
	}
	if cfg.BreakerBackoff == 0 {
		cfg.BreakerBackoff = def.BreakerBackoff
	}
	if cfg.BreakerMaxBackoff == 0 {
		cfg.BreakerMaxBackoff = def.BreakerMaxBackoff
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache.New(cfg.CacheEntries, cfg.CacheBytes),
		pool:     NewPool(cfg.Workers, cfg.Backlog),
		hist:     newLatencyHist(),
		errCodes: newErrCodeCounters(),
		teleAgg:  &teleAggregate{},
		prof:     &liveProfile{},
		start:    time.Now(),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerBackoff, cfg.BreakerMaxBackoff),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		if cfg.StoreFault != "" {
			pt, err := faults.ByName(cfg.StoreFault)
			if err != nil {
				return nil, fmt.Errorf("store fault: %w", err)
			}
			st.SetInjector(faults.NewInjector(pt))
		}
		s.store = st
		s.recoverStore()
		if cfg.PersistProfile {
			// Merge the last snapshot back in before any traffic: the
			// adeprofile merge is commutative, so restart order can't
			// change the document.
			if p, err := st.ReadProfile(); err == nil && p != nil {
				s.prof.seed(p)
			}
			if cfg.ProfileSnapshotEvery > 0 {
				s.snapStop = make(chan struct{})
				s.snapDone = make(chan struct{})
				go s.snapshotLoop(cfg.ProfileSnapshotEvery)
			}
		}
	}
	s.http = &http.Server{Addr: cfg.Addr, Handler: s.Handler()}
	return s, nil
}

// recoverStore replays the durable artifact store into the in-memory
// cache. Every entry is re-verified from scratch; a failure at any
// stage quarantines the file (never deletes it) and the daemon serves
// on without it.
func (s *Server) recoverStore() {
	entries, err := s.store.RecoverArtifacts()
	if err != nil {
		return
	}
	for _, e := range entries {
		art, err := materialize(e)
		if err != nil {
			s.store.QuarantineArtifact(e.ProgramHash, e.OptionsFP, err.Error())
			s.recoveredQuarantined++
			continue
		}
		s.cache.Put(art.key, art, art.size)
		for _, a := range e.Aliases {
			s.cache.Alias(a, art.key)
		}
		s.recoveredArtifacts++
	}
}

// materialize rebuilds an executable artifact from its persisted
// canonical text — parse, IR verify, bytecode compile, bytecode
// verify — without re-running ADE (the text is already post-ADE).
func materialize(e *store.Entry) (*artifact, error) {
	prog, err := pipeline.Parse(e.Program)
	if err != nil {
		return nil, err
	}
	bc, err := pipeline.Compile(prog)
	if err != nil {
		return nil, err
	}
	return &artifact{
		key:      cache.Key{ProgramHash: e.ProgramHash, OptionsFP: e.OptionsFP},
		bc:       bc,
		degraded: e.Degraded,
		classes:  e.Classes,
		size:     artifactSize(e.Program, bc),
	}, nil
}

// snapshotLoop periodically persists the live profile until Shutdown.
func (s *Server) snapshotLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			close(s.snapDone)
			return
		case <-t.C:
			s.persistProfile()
		}
	}
}

// persistProfile writes the current merged profile to the store
// (best-effort: a failed write is counted in store stats and retried
// on the next tick or at drain).
func (s *Server) persistProfile() {
	if s.store == nil || !s.cfg.PersistProfile {
		return
	}
	if p := s.prof.current(); p != nil {
		s.store.WriteProfile(p)
	}
}

// Handler returns the daemon's routing handler (also used in process
// by tests and perfbench's serve-mixed workload).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/profile", s.handleProfile)
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) { s.handleExec(w, r, false) })
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) { s.handleExec(w, r, true) })
	return mux
}

// ListenAndServe serves on cfg.Addr until Shutdown.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve serves on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown drains gracefully: stop accepting, wait for in-flight
// requests (bounded by ctx), stop the worker pool, then take the
// final durable profile snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.pool.Close()
	if s.snapStop != nil {
		s.snapOnce.Do(func() {
			close(s.snapStop)
			<-s.snapDone
		})
	}
	s.persistProfile()
	return err
}

// CacheStats exposes the artifact-cache counters (for adeserved's
// shutdown line, tests and perfbench).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// StoreStats exposes the durable-store counters; ok is false when no
// store is configured.
func (s *Server) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptimeMs\":%d}\n", time.Since(s.start).Milliseconds())
}

// handleProfile serves the live adeprofile/v1 document merged from
// every recorded run since startup. The output is the canonical
// serialization: it feeds straight into `adec -profile` or
// `adereport -profile`.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.prof.document())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	ps := s.prof.snapshot()
	doc := map[string]any{
		"uptimeMs": time.Since(s.start).Milliseconds(),
		"requests": map[string]any{
			"total":           s.reqTotal.Load(),
			"ok":              s.reqOK.Load(),
			"servedFromCache": s.cacheRuns.Load(),
		},
		"errors": s.errCodes.snapshot(),
		"cache": map[string]any{
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evictions": cs.Evictions,
			"rejected":  cs.Rejected,
			"entries":   cs.Entries,
			"bytes":     cs.Bytes,
			"hitRatio":  cs.HitRatio(),
		},
		"phases": s.phases.snapshot(),
		"latency": map[string]any{
			"count":  s.hist.count,
			"meanMs": s.hist.meanMs(),
			"p50Ms":  float64(s.hist.quantile(0.50).Microseconds()) / 1000,
			"p90Ms":  float64(s.hist.quantile(0.90).Microseconds()) / 1000,
			"p99Ms":  float64(s.hist.quantile(0.99).Microseconds()) / 1000,
			"note":   "percentiles are histogram-bucket upper bounds",
		},
		"pool": map[string]any{
			"workers": s.cfg.Workers,
			"backlog": s.cfg.Backlog,
			"panics":  s.pool.Panics(),
		},
		"telemetry": s.teleAgg.snapshot(),
		"profile":   ps,
		// profileRecovered is surfaced top-level too: the chaos harness
		// (and CI) greps for it to tell a warm restart from a cold one.
		"profileRecovered": ps.Recovered,
		"breaker":          s.breaker.snapshot(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		doc["store"] = map[string]any{
			"dir":                  s.store.Dir(),
			"writes":               ss.Writes,
			"writeErrors":          ss.WriteErrors,
			"fsyncs":               ss.Fsyncs,
			"loads":                ss.Loads,
			"loadErrors":           ss.LoadErrors,
			"quarantined":          ss.Quarantined,
			"diskLoads":            s.storeLoads.Load(),
			"recoveredArtifacts":   s.recoveredArtifacts,
			"recoveredQuarantined": s.recoveredQuarantined,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleExec decodes, submits the work to the pool, and encodes the
// reply; runIt distinguishes /v1/run from /v1/compile.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request, runIt bool) {
	started := time.Now()
	id := fmt.Sprintf("r-%06d", s.reqID.Load())
	s.reqID.Add(1)
	s.reqTotal.Add(1)

	if r.Method != http.MethodPost {
		resp := &Response{ID: id, Error: apiErr(CodeBadRequest, http.StatusMethodNotAllowed, "POST required")}
		s.writeResponse(w, r, resp, started, false)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		code, status := CodeBadRequest, http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code, status = CodeBodyTooLarge, http.StatusRequestEntityTooLarge
		}
		resp := &Response{ID: id, Error: apiErr(code, status, err.Error())}
		s.writeResponse(w, r, resp, started, false)
		return
	}
	req, aerr := DecodeRequest(body, r.Header.Get("Content-Type"), r.URL.Query(), s.cfg.MaxProgramBytes)
	if aerr != nil {
		s.writeResponse(w, r, &Response{ID: id, Error: aerr}, started, false)
		return
	}

	v, err := s.pool.Do(r.Context(), func() any { return s.process(req, runIt, id) })
	var resp *Response
	switch {
	case err == nil:
		resp = v.(*Response)
	case errors.Is(err, ErrOverloaded):
		resp = &Response{ID: id, Error: apiErr(CodeOverloaded, http.StatusServiceUnavailable, "worker pool saturated; retry")}
	case errors.Is(err, ErrPoolClosed):
		resp = &Response{ID: id, Error: apiErr(CodeShutdown, http.StatusServiceUnavailable, "daemon is shutting down")}
	default:
		var pe *PanicError
		if errors.As(err, &pe) {
			resp = &Response{ID: id, Error: apiErr(CodePanic, http.StatusInternalServerError, pe.Error())}
		} else {
			// Caller context expired while queued or running; the
			// client is likely gone, but answer anyway.
			resp = &Response{ID: id, Error: apiErr(CodeDeadline, http.StatusRequestTimeout, err.Error())}
		}
	}
	s.writeResponse(w, r, resp, started, resp.Cache != nil && resp.Cache.Hit)
}

// process runs the full pipeline for one request on a pool worker.
func (s *Server) process(req *Request, runIt bool, id string) *Response {
	resp := &Response{ID: id}
	art, phases, hit, disk, aerr := s.compileThroughCache(req)
	resp.Phases = &phases
	if aerr != nil {
		resp.Error = aerr
		return resp
	}
	resp.Cache = &CacheInfo{Hit: hit, Key: art.key.ProgramHash + "|" + art.key.OptionsFP, Disk: disk}
	resp.Degraded = art.degraded
	resp.Classes = art.classes
	if !runIt {
		resp.OK = true
		return resp
	}
	// The circuit breaker guards execution only, and deliberately
	// ignores fault-injected requests: fault injection is an opt-in
	// test surface, not program behavior.
	guard := req.Fault == ""
	if guard {
		if ok, retry := s.breaker.allow(art.key.ProgramHash); !ok {
			ms := retry.Milliseconds()
			if ms <= 0 {
				ms = 1
			}
			e := apiErr(CodeQuarantined, http.StatusUnprocessableEntity,
				"program quarantined after repeated crashes or budget blowouts; retry later")
			e.RetryAfterMs = ms
			resp.Error = e
			return resp
		}
	}
	s.executeInto(resp, art, req, hit)
	if guard {
		s.breaker.record(art.key.ProgramHash, breakerBad(resp.Error))
	}
	return resp
}

// breakerBad classifies an execution outcome for the circuit breaker:
// engine-contained panics and budget blowouts count against the
// program; success and plain guest runtime errors (div-zero and
// friends, which cost almost nothing to serve) do not.
func breakerBad(e *APIError) bool {
	if e == nil {
		return false
	}
	switch e.Code {
	case CodeRuntimePanic, CodeStepBudget, CodeMemBudget, CodeDeadline:
		return true
	}
	return false
}

// compileThroughCache obtains the compiled artifact for a request:
// from the raw-text alias (no parse), from the canonical key (parse
// only), from the durable store (parse + deterministic re-compile of
// the persisted post-ADE text — never re-running ADE), or by running
// the full pipeline. Fault-injected and no-cache requests bypass the
// cache entirely — injectors are single-run state that must never
// leak into a shared artifact. The disk return flag marks store hits
// (CacheInfo.Disk).
func (s *Server) compileThroughCache(req *Request) (*artifact, PhaseInfo, bool, bool, *APIError) {
	var phases PhaseInfo
	fp := req.fingerprint(s.cfg.Sandbox)
	bypass := req.Fault != "" || req.NoCache

	rawSum := sha256.Sum256([]byte(req.Program))
	rawAlias := hex.EncodeToString(rawSum[:]) + "|" + fp
	if !bypass {
		if _, v, ok := s.cache.Resolve(rawAlias); ok {
			return v.(*artifact), phases, true, false, nil
		}
	}

	phases.Parsed = true
	s.phases.Parses.Add(1)
	prog, err := pipeline.Parse(req.Program)
	if err != nil {
		return nil, phases, false, false, mapCompileError(err)
	}
	key := cache.Key{ProgramHash: ir.ProgramHash(prog), OptionsFP: fp}
	if !bypass {
		if v, ok := s.cache.Get(key); ok {
			s.cache.Alias(rawAlias, key)
			return v.(*artifact), phases, true, false, nil
		}
		// In-memory miss (cold start or LRU eviction): try the durable
		// store before paying for ADE again. The phase counters stay
		// honest — ADEApplies and Compiles track pipeline work, and a
		// disk load does neither; it counts under storeLoads instead.
		if s.store != nil {
			if e, serr := s.store.GetArtifact(key.ProgramHash, fp); serr == nil && e != nil {
				if art, merr := materialize(e); merr == nil {
					s.storeLoads.Add(1)
					s.cache.Put(key, art, art.size)
					s.cache.Alias(rawAlias, key)
					return art, phases, true, true, nil
				} else {
					// Checksum-clean but semantically dead (e.g. written
					// by a newer compiler): quarantine and recompile.
					s.store.QuarantineArtifact(key.ProgramHash, fp, merr.Error())
				}
			}
		}
	}

	art := &artifact{key: key}
	var em *remarks.Emitter
	if req.wantADE() {
		phases.ADE = true
		s.phases.ADEApplies.Add(1)
		opts := req.coreOptions(s.cfg.Sandbox)
		if inj := requestInjector(req, faults.PassPanic); inj != nil {
			opts.Faults = inj
		}
		if s.store != nil && !bypass {
			// Remarks are only collected when the artifact will be
			// persisted: the digest in the store entry fingerprints what
			// the pipeline said about this compile.
			em = remarks.NewEmitter()
			opts.Remarks = em
		}
		rep, err := pipeline.Transform(prog, opts)
		if err != nil {
			return nil, phases, false, false, mapCompileError(err)
		}
		art.degraded = rep.Degraded
		art.classes = len(rep.Classes)
	}
	phases.Compiled = true
	s.phases.Compiles.Add(1)
	// Never cache an artifact the verifier rejects: a bad compile dies
	// here, once, instead of being replayed from the cache on every
	// subsequent request.
	bc, err := pipeline.Compile(prog)
	if err != nil {
		return nil, phases, false, false, mapCompileError(err)
	}
	art.bc = bc
	art.size = artifactSize(req.Program, bc)
	if !bypass {
		s.cache.Put(key, art, art.size)
		s.cache.Alias(rawAlias, key)
		if s.store != nil {
			var digest string
			if em != nil {
				sum := sha256.Sum256([]byte(remarks.Text(em.Remarks)))
				digest = hex.EncodeToString(sum[:])
			}
			// Best-effort durability: a failed write is counted in store
			// stats; the in-memory artifact still serves this process.
			s.store.PutArtifact(&store.Entry{
				ProgramHash:   key.ProgramHash,
				OptionsFP:     fp,
				ADE:           req.wantADE(),
				Program:       ir.Print(prog),
				Degraded:      art.degraded,
				Classes:       art.classes,
				RemarksDigest: digest,
				Aliases:       []string{rawAlias},
				Size:          art.size,
			})
		}
	}
	return art, phases, false, false, nil
}

// artifactSize models the retained footprint of one cache entry:
// the canonical program text plus the compiled code and constant
// pools. The constants are approximate but stable, which is all the
// byte bound needs.
func artifactSize(program string, bc *bytecode.Prog) int64 {
	size := int64(len(program))
	for _, f := range bc.Funcs {
		size += int64(len(f.Code))*32 + int64(len(f.Consts))*16 + int64(len(f.Name))
	}
	for _, m := range bc.Msgs {
		size += int64(len(m))
	}
	return size
}

// requestInjector builds the per-request fault injector when the
// named point matches the wanted kind class (compile-time pass
// panics vs runtime faults), nil otherwise.
func requestInjector(req *Request, want faults.Kind) *faults.Injector {
	if req.Fault == "" {
		return nil
	}
	pt, err := faults.ByName(req.Fault)
	if err != nil {
		return nil // validated earlier; unreachable
	}
	isCompile := pt.Kind == faults.PassPanic
	if (want == faults.PassPanic) != isCompile {
		return nil
	}
	return faults.NewInjector(pt)
}

// executeInto runs the artifact on the VM and fills the run-side
// response fields.
func (s *Server) executeInto(resp *Response, art *artifact, req *Request, fromCache bool) {
	resp.Engine = "vm"
	if _, ok := art.bc.ByName[req.Entry]; !ok {
		resp.Error = apiErr(CodeUnknownEntry, http.StatusBadRequest, "no function @"+req.Entry)
		return
	}

	steps, mem, timeout := req.budgets(s.cfg)
	iopts := interp.DefaultOptions()
	iopts.MaxSteps = steps
	iopts.MaxBytes = mem
	var cancel context.CancelFunc
	if timeout > 0 {
		var ctx context.Context
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
		defer cancel()
		iopts.Context = ctx
	}
	if inj := requestInjector(req, faults.AllocFail); inj != nil {
		iopts.Faults = inj
	}
	var rec *telemetry.Recorder
	if req.Telemetry || s.prof.sampleNow(s.cfg.ProfileSample) {
		rec = telemetry.NewRecorder()
		iopts.Telemetry = rec
	}

	// The compiled bytecode is immutable: concurrent VMs share it.
	m := vm.New(art.bc, iopts)

	args := make([]interp.Val, len(req.Args))
	for i, a := range req.Args {
		args[i] = interp.IntV(a)
	}
	ret, runErr := m.Run(req.Entry, args...)
	wall, _ := m.Wall()
	resp.WallMs = float64(wall.Microseconds()) / 1000
	m.FinalizeMem()
	st := m.Stats
	resp.Stats = &RunStats{Steps: st.Steps, Sparse: st.Sparse, Dense: st.Dense, PeakBytes: st.PeakBytes}
	resp.Output = &OutputSum{Count: st.EmitCount, Checksum: st.EmitSum}
	if rec != nil {
		t := rec.Result()
		s.teleAgg.fold(t)
		if req.Telemetry {
			if raw, err := json.Marshal(t); err == nil {
				resp.Telemetry = raw
			}
		}
		// Only clean, fault-free runs feed the live profile: a budget-
		// interrupted or fault-injected run's counts would distort the
		// aggregates a later compile consumes.
		if runErr == nil && req.Fault == "" {
			s.prof.fold(art.key.ProgramHash, t)
		}
	}
	if fromCache {
		s.cacheRuns.Add(1)
	}
	if runErr != nil {
		resp.Error = MapRunError(runErr)
		resp.Partial = true
		return
	}
	resp.OK = true
	resp.Result = ret.String()
}

// writeResponse encodes the reply, tallies metrics, and writes the
// structured access-log line.
func (s *Server) writeResponse(w http.ResponseWriter, r *http.Request, resp *Response, started time.Time, cacheHit bool) {
	status := http.StatusOK
	code := ""
	if resp.Error != nil {
		status = resp.Error.Status
		code = resp.Error.Code
		s.errCodes.inc(code)
	} else {
		s.reqOK.Add(1)
	}
	dur := time.Since(started)
	s.hist.observe(dur)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", resp.ID)
	if resp.Error != nil && resp.Error.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((resp.Error.RetryAfterMs+999)/1000, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)

	if s.cfg.AccessLog != nil {
		line, _ := json.Marshal(map[string]any{
			"ts":       time.Now().UTC().Format(time.RFC3339Nano),
			"id":       resp.ID,
			"remote":   r.RemoteAddr,
			"method":   r.Method,
			"path":     r.URL.Path,
			"status":   status,
			"code":     code,
			"cacheHit": cacheHit,
			"ms":       float64(dur.Microseconds()) / 1000,
		})
		s.logMu.Lock()
		s.cfg.AccessLog.Write(append(line, '\n'))
		s.logMu.Unlock()
	}
}
