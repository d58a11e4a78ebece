package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memoir/internal/adeprofile"
)

// A small enumerable kernel: builds a sparse-keyed map, probes it,
// emits. ADE enumerates the map, so compiled-with-ADE vs without
// differ and the cache must keep them apart.
const histProg = `fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %h := mul(%i, 2654435761)
    %v := rem(%h, 97)
    %sparse := mul(%v, 982451653)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, 500)
  while %more
  %inF := phi(%in0)
  %hist := new Map<u64,u32>()
  for [%i2, %val] in %inF:
    %hist0 := phi(%hist, %hist3)
    %cond := has(%hist0, %val)
    if %cond:
      %freq := read(%hist0, %val)
    else:
      %hist1 := insert(%hist0, %val)
    %freq0 := phi(%freq, 0)
    %hist2 := phi(%hist0, %hist1)
    %freq1 := add(%freq0, 1)
    %hist3 := write(%hist2, %val, %freq1)
  %histF := phi(%hist0)
  for [%k, %f] in %histF:
    %g64 := cast<u64>(%f)
    %kv := add(%k, %g64)
    emit(%kv)
  %n := size(%histF)
  ret %n
`

// An unbounded counting loop: budget-interruption fodder.
const spinProg = `fn u64 @main(): exported
  do:
    %i := phi(0, %i1)
    %i1 := add(%i, 1)
    %more := lt(%i1, 1000000000)
  while %more
  %iF := phi(%i1)
  ret %iF
`

// Unbounded memory growth.
const growProg = `fn u64 @main(): exported
  %s := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %s1 := insert(%s0, end, %i)
    %i1 := add(%i, 1)
    %more := lt(%i1, 10000000)
  while %more
  %sF := phi(%s0)
  %n := size(%sF)
  ret %n
`

const divZeroProg = `fn u64 @main(): exported
  %z := sub(1, 1)
  %d := div(1, %z)
  ret %d
`

func newTestServer(t *testing.T, mut ...func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.AccessLog = nil
	// The breaker is off by default in tests: the error-taxonomy tests
	// deliberately hammer one program with budget blowouts and must
	// see the underlying codes, not `quarantined`. Breaker tests
	// re-enable it explicitly.
	cfg.BreakerThreshold = -1
	for _, m := range mut {
		m(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.pool.Close() })
	return s
}

func postJSON(t testing.TB, h http.Handler, path string, req any) (*Response, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, h, path, body, "application/json", "")
}

func postRaw(t testing.TB, h http.Handler, path string, body []byte, contentType, query string) (*Response, int) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, path+query, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON (%d): %v\n%s", w.Code, err, w.Body.String())
	}
	return &resp, w.Code
}

// Both accepted spellings of the engine field, "vm" and omitted, run
// on the VM.
func TestRunColdThenHot(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	for name, engine := range map[string]string{"vm": "vm", "default": ""} {
		t.Run(name, func(t *testing.T) {
			prog := strings.ReplaceAll(histProg, "97", map[string]string{"vm": "89", "default": "83"}[name])
			cold, code := postJSON(t, h, "/v1/run", Request{Program: prog, Engine: engine})
			if code != http.StatusOK || !cold.OK {
				t.Fatalf("cold run failed: %d %+v", code, cold.Error)
			}
			if cold.Engine != "vm" {
				t.Fatalf("engine %q ran on %q, want vm", engine, cold.Engine)
			}
			if cold.Cache.Hit {
				t.Fatal("first request cannot hit the cache")
			}
			if !cold.Phases.Parsed || !cold.Phases.ADE || !cold.Phases.Compiled {
				t.Fatalf("cold run must run all phases: %+v", cold.Phases)
			}
			if cold.Classes == 0 {
				t.Fatal("histogram kernel should form at least one enumeration class")
			}

			before := statsPhases(t, h)
			hot, code := postJSON(t, h, "/v1/run", Request{Program: prog, Engine: engine})
			if code != http.StatusOK || !hot.OK {
				t.Fatalf("hot run failed: %d %+v", code, hot.Error)
			}
			if after := statsPhases(t, h); after != before {
				t.Fatalf("/v1/stats phase counters advanced on a hot request: %+v -> %+v", before, after)
			}
			if !hot.Cache.Hit {
				t.Fatal("second identical request must hit the cache")
			}
			// The load-bearing assertion: a hot request re-runs NO
			// pipeline phase — not even the parse (raw-text alias).
			if hot.Phases.Parsed || hot.Phases.ADE || hot.Phases.Compiled {
				t.Fatalf("hot run re-ran pipeline phases: %+v", hot.Phases)
			}
			if hot.Cache.Key != cold.Cache.Key {
				t.Fatalf("cache key changed between identical requests: %q vs %q", cold.Cache.Key, hot.Cache.Key)
			}
			// Identical observable behavior from the cached artifact.
			if *hot.Output != *cold.Output || hot.Result != cold.Result || hot.Stats.Steps != cold.Stats.Steps {
				t.Fatalf("cached run diverged: cold=%+v/%+v hot=%+v/%+v", cold.Result, cold.Output, hot.Result, hot.Output)
			}
		})
	}
}

// statsPhases reads the pipeline phase counters from GET /v1/stats.
func statsPhases(t *testing.T, h http.Handler) phaseSnapshot {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var doc struct {
		Phases phaseSnapshot `json:"phases"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, w.Body.String())
	}
	return doc.Phases
}

// A noCache request after a hot one bypasses the artifact cache: it
// reports a miss, runs every pipeline phase, answers identically and
// leaves the cache's entry count unchanged.
func TestNoCacheBypassesCache(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	if prime, _ := postJSON(t, h, "/v1/run", Request{Program: histProg}); !prime.OK {
		t.Fatalf("prime: %+v", prime.Error)
	}
	hot, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	if !hot.OK || !hot.Cache.Hit {
		t.Fatalf("hot request missed: %+v %+v", hot.Cache, hot.Error)
	}
	entries := s.CacheStats().Entries
	bypass, code := postJSON(t, h, "/v1/run", Request{Program: histProg, NoCache: true})
	if code != http.StatusOK || !bypass.OK {
		t.Fatalf("noCache run failed: %d %+v", code, bypass.Error)
	}
	if bypass.Cache.Hit {
		t.Fatal("noCache request reported a cache hit")
	}
	if !bypass.Phases.Parsed || !bypass.Phases.ADE || !bypass.Phases.Compiled {
		t.Fatalf("noCache request must run all phases: %+v", bypass.Phases)
	}
	if got := s.CacheStats().Entries; got != entries {
		t.Fatalf("noCache request changed the cache: %d -> %d entries", entries, got)
	}
	if *bypass.Output != *hot.Output || bypass.Result != hot.Result {
		t.Fatalf("noCache answer diverged: %+v/%+v vs %+v/%+v", bypass.Result, bypass.Output, hot.Result, hot.Output)
	}
}

// Reformatting the program (comments, blank lines) changes the raw
// text but not the canonical hash: the cache must still hit, after a
// parse.
func TestRunCanonicalHashHit(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	cold, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	if !cold.OK || cold.Cache.Hit {
		t.Fatalf("cold: %+v", cold)
	}
	reformatted := "// a leading comment\n" + strings.Replace(histProg, "  %hist := new", "\n  %hist := new", 1)
	hot, _ := postJSON(t, h, "/v1/run", Request{Program: reformatted})
	if !hot.OK || !hot.Cache.Hit {
		t.Fatalf("reformatted program missed the cache: %+v %+v", hot.Cache, hot.Error)
	}
	if !hot.Phases.Parsed || hot.Phases.ADE || hot.Phases.Compiled {
		t.Fatalf("canonical hit should parse but skip ADE+compile: %+v", hot.Phases)
	}
	if hot.Cache.Key != cold.Cache.Key {
		t.Fatalf("canonical keys differ: %q vs %q", cold.Cache.Key, hot.Cache.Key)
	}
}

// Different ADE options are different artifacts: no aliasing.
func TestOptionsFingerprintSeparatesArtifacts(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	withADE, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	off := false
	withoutADE, _ := postJSON(t, h, "/v1/run", Request{Program: histProg, ADE: &off})
	if !withADE.OK || !withoutADE.OK {
		t.Fatalf("runs failed: %+v %+v", withADE.Error, withoutADE.Error)
	}
	if withoutADE.Cache.Hit {
		t.Fatal("ade=off must not reuse the ade=on artifact")
	}
	if withADE.Cache.Key == withoutADE.Cache.Key {
		t.Fatal("cache keys must differ across options")
	}
	rte := false
	ablated, _ := postJSON(t, h, "/v1/run", Request{Program: histProg, Options: &ADEOptions{RTE: &rte}})
	if !ablated.OK || ablated.Cache.Hit {
		t.Fatalf("ablated options must compile their own artifact: %+v", ablated)
	}
	if ablated.Cache.Key == withADE.Cache.Key {
		t.Fatal("ablated key must differ from default key")
	}
}

// The budget taxonomy maps to stable codes and statuses, with
// structured bodies that localize the interruption.
func TestBudgetErrorMapping(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	cases := []struct {
		name   string
		req    Request
		code   string
		status int
	}{
		{"step-budget", Request{Program: spinProg, MaxSteps: 10_000}, CodeStepBudget, http.StatusTooManyRequests},
		{"mem-budget", Request{Program: growProg, MaxMemBytes: 65_536}, CodeMemBudget, http.StatusTooManyRequests},
		{"deadline", Request{Program: spinProg, TimeoutMs: 30}, CodeDeadline, http.StatusRequestTimeout},
		{"runtime-error", Request{Program: divZeroProg}, CodeRuntimeError, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, status := postJSON(t, h, "/v1/run", tc.req)
			if status != tc.status {
				t.Fatalf("want HTTP %d, got %d (%+v)", tc.status, status, resp.Error)
			}
			if resp.OK || resp.Error == nil || resp.Error.Code != tc.code {
				t.Fatalf("want code %q, got %+v", tc.code, resp.Error)
			}
			if resp.Error.Status != tc.status {
				t.Fatalf("body status %d != transport %d", resp.Error.Status, tc.status)
			}
			if tc.code == CodeStepBudget || tc.code == CodeMemBudget {
				if !resp.Partial || resp.Stats == nil || resp.Stats.Steps == 0 {
					t.Fatalf("interrupted run must carry partial stats: %+v", resp)
				}
				if resp.Error.Fn == "" || resp.Error.Steps == 0 {
					t.Fatalf("structured error must localize the interruption: %+v", resp.Error)
				}
			}
		})
	}
	if resp, _ := postJSON(t, h, "/v1/run", Request{Program: histProg}); !resp.OK {
		t.Fatalf("daemon must keep serving after budget errors: %+v", resp.Error)
	}
}

// Budget requests above the server ceiling are clamped.
func TestBudgetCeilingClamp(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CeilMaxSteps = 5_000 })
	resp, status := postJSON(t, s.Handler(), "/v1/run", Request{Program: spinProg, MaxSteps: 1 << 60})
	if status != http.StatusTooManyRequests || resp.Error == nil || resp.Error.Code != CodeStepBudget {
		t.Fatalf("ceiling clamp did not bite: %d %+v", status, resp.Error)
	}
	// The engine detects exhaustion on the step after the budget
	// (Steps > MaxSteps), so the partial count is ceiling+1.
	if resp.Stats.Steps > 5_001 {
		t.Fatalf("ran %d steps past the 5000 ceiling", resp.Stats.Steps)
	}
}

// Acceptance: a mid-request injected fault (PR-5 registry) degrades
// that request with a 4xx + structured error; the daemon keeps
// serving, and faulted requests never touch the cache.
func TestFaultInjectionDegradesOneRequest(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	prime, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	if !prime.OK {
		t.Fatalf("prime: %+v", prime.Error)
	}
	misses := s.CacheStats().Misses

	// Runtime fault: the 1st collection allocation fails mid-run; the
	// engine contains the panic and the API maps it to 422.
	faulted, status := postJSON(t, h, "/v1/run", Request{Program: histProg, Fault: "alloc-fail:1"})
	if status != http.StatusUnprocessableEntity || faulted.OK || faulted.Error.Code != CodeRuntimePanic {
		t.Fatalf("alloc-fail: want 422 runtime-panic, got %d %+v", status, faulted.Error)
	}
	if !strings.Contains(faulted.Error.Message, "injected fault") {
		t.Fatalf("fault should surface in the structured message: %+v", faulted.Error)
	}
	if got := s.CacheStats().Misses; got != misses {
		t.Fatalf("faulted request touched the cache: misses %d -> %d", misses, got)
	}

	// Compile-time fault under the production sandbox: the pass rolls
	// back, the request succeeds degraded (unoptimized program).
	degraded, status := postJSON(t, h, "/v1/run", Request{Program: histProg, Fault: "pass-panic:transform"})
	if status != http.StatusOK || !degraded.OK {
		t.Fatalf("sandboxed pass fault should degrade, not fail: %d %+v", status, degraded.Error)
	}
	if len(degraded.Degraded) == 0 {
		t.Fatal("degraded sub-pass list should be reported")
	}

	// Same fault with the sandbox off: a 422 with the ADE error code.
	hard := newTestServer(t, func(c *Config) { c.Sandbox = false })
	failed, status := postJSON(t, hard.Handler(), "/v1/run", Request{Program: histProg, Fault: "pass-panic:transform"})
	if status != http.StatusUnprocessableEntity || failed.Error == nil || failed.Error.Code != CodeADEError {
		t.Fatalf("unsandboxed pass fault: want 422 ade-error, got %d %+v", status, failed.Error)
	}

	// The daemon keeps serving — and still from the cache.
	after, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	if !after.OK || !after.Cache.Hit {
		t.Fatalf("daemon must keep serving hot after faults: %+v %+v", after.Error, after.Cache)
	}
	if *after.Output != *prime.Output {
		t.Fatal("output changed after fault episode")
	}
}

func TestCompileEndpoint(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	c1, status := postJSON(t, h, "/v1/compile", Request{Program: histProg})
	if status != http.StatusOK || !c1.OK || c1.Cache.Hit {
		t.Fatalf("compile: %d %+v", status, c1)
	}
	if c1.Result != "" || c1.Stats != nil {
		t.Fatal("compile response must not carry run results")
	}
	c2, _ := postJSON(t, h, "/v1/compile", Request{Program: histProg})
	if !c2.Cache.Hit {
		t.Fatal("second compile must hit")
	}
	// And a run after a compile is hot from the start.
	r, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	if !r.OK || !r.Cache.Hit {
		t.Fatalf("run after compile should be hot: %+v", r)
	}
}

func TestDecoderHardening(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBodyBytes = 4096
		c.MaxProgramBytes = 1024
	})
	h := s.Handler()
	cases := []struct {
		name   string
		body   string
		ctype  string
		status int
		code   string
	}{
		{"empty body", ``, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"not json", `{{{{`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"unknown field", `{"program":"x","nope":1}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"trailing garbage", `{"program":"x"} extra`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"empty program", `{"program":""}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"bad engine", `{"program":"x","engine":"gpu"}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"interp engine", `{"program":"x","engine":"interp"}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"bad fault", `{"program":"x","fault":"nuke-everything"}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"bad impl", `{"program":"x","options":{"setImpl":"BloomSet"}}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"negative budget", `{"program":"x","timeoutMs":-5}`, "application/json", http.StatusBadRequest, CodeBadRequest},
		{"body too large", `{"program":"` + strings.Repeat("a", 5000) + `"}`, "application/json", http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
		{"program too large", `{"program":"` + strings.Repeat("a", 2000) + `"}`, "application/json", http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
		{"parse error", `{"program":"fn oops"}`, "application/json", http.StatusBadRequest, CodeParseError},
		{"raw mir parse error", "not a program", "text/plain", http.StatusBadRequest, CodeParseError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, status := postRaw(t, h, "/v1/run", []byte(tc.body), tc.ctype, "")
			if status != tc.status || resp.Error == nil || resp.Error.Code != tc.code {
				t.Fatalf("want %d/%s, got %d/%+v", tc.status, tc.code, status, resp.Error)
			}
		})
	}
	// GET on a POST endpoint.
	r := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: want 405, got %d", w.Code)
	}
}

// The raw-.mir convenience format: program as body, options in query.
func TestRawMirRequest(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	resp, status := postRaw(t, h, "/v1/run", []byte(histProg), "text/plain", "?engine=vm&telemetry=1")
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("raw mir run: %d %+v", status, resp.Error)
	}
	if resp.Engine != "vm" {
		t.Fatalf("query engine ignored: %q", resp.Engine)
	}
	if len(resp.Telemetry) == 0 {
		t.Fatal("telemetry requested via query but absent")
	}
	// Raw and JSON spellings of the same program share one artifact.
	viaJSON, _ := postJSON(t, h, "/v1/run", Request{Program: histProg})
	if !viaJSON.Cache.Hit {
		t.Fatal("JSON request should hit the artifact the raw request compiled")
	}
}

func TestUnknownEntry(t *testing.T) {
	s := newTestServer(t)
	resp, status := postJSON(t, s.Handler(), "/v1/run", Request{Program: histProg, Entry: "nope"})
	if status != http.StatusBadRequest || resp.Error == nil || resp.Error.Code != CodeUnknownEntry {
		t.Fatalf("want 400 unknown-entry, got %d %+v", status, resp.Error)
	}
}

func TestStatsEndpoint(t *testing.T) {
	logBuf := &syncBuffer{}
	s := newTestServer(t, func(c *Config) { c.AccessLog = logBuf })
	h := s.Handler()
	postJSON(t, h, "/v1/run", Request{Program: histProg, Telemetry: true})
	postJSON(t, h, "/v1/run", Request{Program: histProg, Telemetry: true})
	postJSON(t, h, "/v1/run", Request{Program: spinProg, MaxSteps: 1000})

	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var doc struct {
		Requests struct {
			Total           uint64 `json:"total"`
			OK              uint64 `json:"ok"`
			ServedFromCache uint64 `json:"servedFromCache"`
		} `json:"requests"`
		Errors map[string]uint64 `json:"errors"`
		Cache  struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			Entries  int     `json:"entries"`
			HitRatio float64 `json:"hitRatio"`
		} `json:"cache"`
		Phases struct {
			Parses     uint64 `json:"parses"`
			ADEApplies uint64 `json:"adeApplies"`
			Compiles   uint64 `json:"compiles"`
		} `json:"phases"`
		Latency   map[string]any `json:"latency"`
		Telemetry teleSnapshot   `json:"telemetry"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, w.Body.String())
	}
	if doc.Requests.Total != 3 || doc.Requests.OK != 2 {
		t.Fatalf("request counters: %+v", doc.Requests)
	}
	if doc.Requests.ServedFromCache != 1 {
		t.Fatalf("servedFromCache: %+v", doc.Requests)
	}
	if doc.Errors[CodeStepBudget] != 1 {
		t.Fatalf("error counters: %+v", doc.Errors)
	}
	if doc.Cache.Hits != 1 || doc.Cache.Entries != 2 {
		t.Fatalf("cache counters: %+v", doc.Cache)
	}
	if doc.Phases.Parses != 2 || doc.Phases.ADEApplies != 2 || doc.Phases.Compiles != 2 {
		t.Fatalf("phase counters (hot request must not advance them): %+v", doc.Phases)
	}
	if doc.Telemetry.Requests != 2 || doc.Telemetry.Sites == 0 {
		t.Fatalf("telemetry aggregate: %+v", doc.Telemetry)
	}

	// Structured access log: one JSON line per request, with IDs.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 access-log lines, got %d:\n%s", len(lines), logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v (%q)", err, lines[1])
	}
	if entry["id"] == "" || entry["path"] != "/v1/run" || entry["cacheHit"] != true {
		t.Fatalf("access log entry: %v", entry)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
}

// Load shedding: with 1 worker, no backlog, and a slow request
// holding the worker, a second request must be rejected 503 rather
// than queued without bound.
func TestOverloadSheds(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Backlog = -1 // no queue beyond the single worker
	})
	h := s.Handler()

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		// Retry: with no backlog the non-blocking submit can race the
		// worker goroutine's startup and shed; keep trying until the
		// holder job actually lands on the worker.
		for {
			_, err := s.pool.Do(context.Background(), func() any {
				close(started)
				<-release
				return nil
			})
			if err == nil {
				return
			}
		}
	}()
	<-started
	resp, status := postJSON(t, h, "/v1/run", Request{Program: divZeroProg})
	close(release)
	if status != http.StatusServiceUnavailable || resp.Error == nil || resp.Error.Code != CodeOverloaded {
		t.Fatalf("want 503 overloaded, got %d %+v", status, resp.Error)
	}
}

// Graceful shutdown drains the in-flight request.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	// Prime, then issue a slow request and shut down while in flight.
	if _, err := http.Post(url+"/healthz", "", nil); err == nil {
		// healthz is GET; ignore result — this just waits for accept.
	}
	body, _ := json.Marshal(Request{Program: histProg})
	if resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatalf("prime: %v", err)
	} else {
		resp.Body.Close()
	}

	slowBody, _ := json.Marshal(Request{Program: spinProg, MaxSteps: 30_000_000})
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(slowBody))
		if err != nil {
			inflight <- result{0, err}
			return
		}
		defer resp.Body.Close()
		inflight <- result{resp.StatusCode, nil}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request reach a worker

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight request was dropped during shutdown: %v", got.err)
	}
	// The spin program exhausts its step budget (429) or, on slow
	// builds (-race), the request deadline (408) first; either way the
	// point is it completed with a real response, not a connection
	// reset.
	if got.status != http.StatusTooManyRequests && got.status != http.StatusRequestTimeout {
		t.Fatalf("in-flight request status: %d", got.status)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("serve: %v", err)
	}
}

// Concurrent mixed traffic against one server under -race: shared
// bytecode across VMs, one cache.
func TestConcurrentMixedTraffic(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 8; c.Backlog = 256 })
	h := s.Handler()
	progs := []string{histProg, strings.ReplaceAll(histProg, "97", "61"), growProg}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				req := Request{Program: progs[(g+i)%len(progs)]}
				if req.Program == growProg {
					req.MaxMemBytes = 65_536 // deliberate budget trips in the mix
				}
				resp, status := postJSON(t, h, "/v1/run", req)
				switch {
				case resp.OK:
				case resp.Error != nil && resp.Error.Code == CodeMemBudget && status == http.StatusTooManyRequests:
				default:
					errs <- fmt.Sprintf("g%d i%d: %d %+v", g, i, status, resp.Error)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	cs := s.CacheStats()
	if cs.Hits == 0 {
		t.Fatal("concurrent identical programs should share cache entries")
	}
}

// Worker panic containment: a server-side panic in the pipeline is a
// 500 for that request and the daemon keeps serving.
func TestWorkerPanicContainment(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.pool.Do(context.Background(), func() any { panic("boom") }); err == nil {
		t.Fatal("want panic error")
	} else {
		var pe *PanicError
		if !asPanicError(err, &pe) || !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("want PanicError, got %v", err)
		}
	}
	if s.pool.Panics() != 1 {
		t.Fatalf("panic counter: %d", s.pool.Panics())
	}
	resp, _ := postJSON(t, s.Handler(), "/v1/run", Request{Program: histProg})
	if !resp.OK {
		t.Fatalf("daemon must survive worker panics: %+v", resp.Error)
	}
}

func asPanicError(err error, target **PanicError) bool {
	pe, ok := err.(*PanicError)
	if ok {
		*target = pe
	}
	return ok
}

// LRU eviction end to end: a 2-entry cache serving 3 programs evicts
// deterministically and keeps counters consistent.
func TestCacheEvictionEndToEnd(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CacheEntries = 2 })
	h := s.Handler()
	p1, p2, p3 := histProg, strings.ReplaceAll(histProg, "97", "89"), strings.ReplaceAll(histProg, "97", "83")
	for _, p := range []string{p1, p2, p3} {
		if resp, _ := postJSON(t, h, "/v1/run", Request{Program: p}); !resp.OK {
			t.Fatalf("run: %+v", resp.Error)
		}
	}
	cs := s.CacheStats()
	if cs.Entries != 2 || cs.Evictions != 1 {
		t.Fatalf("eviction counters: %+v", cs)
	}
	// p1 (LRU) was evicted: rerunning it is a miss; p3 stays hot.
	r1, _ := postJSON(t, h, "/v1/run", Request{Program: p1})
	if r1.Cache.Hit {
		t.Fatal("evicted entry cannot hit")
	}
	r3, _ := postJSON(t, h, "/v1/run", Request{Program: p3})
	if !r3.Cache.Hit {
		t.Fatal("recent entry must hit")
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestProfileSamplingAndEndpoint covers the live-profile loop: with
// ProfileSample=2 every second executed request is recorded (without
// leaking telemetry into the response), opt-in telemetry runs fold
// too, and GET /v1/profile serves a valid adeprofile/v1 document
// keyed by the artifact's pre-ADE program hash.
func TestProfileSamplingAndEndpoint(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.ProfileSample = 2 })
	h := s.Handler()

	getProfile := func() *adeprofile.Profile {
		t.Helper()
		r := httptest.NewRequest(http.MethodGet, "/v1/profile", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		p, err := adeprofile.Read(w.Body)
		if err != nil {
			t.Fatalf("profile endpoint: %v\n%s", err, w.Body.String())
		}
		return p
	}

	if p := getProfile(); len(p.Programs) != 0 {
		t.Fatalf("fresh daemon should serve an empty profile, got %d programs", len(p.Programs))
	}

	// Four executions at sample rate 2: runs 2 and 4 are recorded.
	var lastKey string
	for i := 0; i < 4; i++ {
		resp, code := postJSON(t, h, "/v1/run", Request{Program: histProg})
		if code != http.StatusOK || !resp.OK {
			t.Fatalf("run %d failed (%d): %+v", i, code, resp.Error)
		}
		if resp.Telemetry != nil {
			t.Fatalf("sampled telemetry leaked into response %d", i)
		}
		lastKey = resp.Cache.Key
	}
	p := getProfile()
	if len(p.Programs) != 1 {
		t.Fatalf("want 1 profiled program, got %d", len(p.Programs))
	}
	pp := p.Programs[0]
	if pp.Runs != 2 {
		t.Fatalf("sample rate 2 over 4 runs: want 2 recorded, got %d", pp.Runs)
	}
	if len(pp.Sites) == 0 {
		t.Fatal("recorded profile has no sites")
	}
	wantHash, _, _ := strings.Cut(lastKey, "|")
	if pp.Hash != wantHash {
		t.Fatalf("profile keyed by %s, want pre-ADE program hash %s", pp.Hash, wantHash)
	}

	// An opt-in telemetry run folds as well, and does echo telemetry.
	resp, _ := postJSON(t, h, "/v1/run", Request{Program: histProg, Telemetry: true})
	if resp.Telemetry == nil {
		t.Fatal("opt-in telemetry missing from response")
	}
	if got := getProfile().Programs[0].Runs; got != 3 {
		t.Fatalf("opt-in run did not fold: want 3 recorded runs, got %d", got)
	}

	// /v1/stats reports the recording counters.
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var stats struct {
		Profile struct {
			RecordedRuns uint64 `json:"recordedRuns"`
			Programs     int    `json:"programs"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Profile.RecordedRuns != 3 || stats.Profile.Programs != 1 {
		t.Fatalf("stats profile counters: %+v", stats.Profile)
	}
}
