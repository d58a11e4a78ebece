package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fuzzServer builds a server with tiny budgets so adversarial
// programs fail fast: the fuzzer explores the decoder and pipeline,
// not the interpreter's patience.
func fuzzServer() *Server {
	cfg := DefaultConfig()
	cfg.CacheEntries = 32
	cfg.CacheBytes = 1 << 20
	cfg.MaxProgramBytes = 4096
	cfg.DefaultMaxSteps = 20_000
	cfg.CeilMaxSteps = 20_000
	cfg.DefaultMaxMem = 1 << 20
	cfg.CeilMaxMem = 1 << 20
	cfg.DefaultTimeout = 250 * time.Millisecond
	cfg.CeilTimeout = 250 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// serveOne drives the decode → process path for one arbitrary body,
// deliberately NOT through the worker pool: the pool's recover would
// mask panics, and surfacing them is the point of the fuzzer.
// Whatever comes back must be a structured response with a sane
// status.
func serveOne(t *testing.T, s *Server, body []byte, contentType string, run bool) {
	t.Helper()
	req, aerr := DecodeRequest(body, contentType, map[string][]string{}, s.cfg.MaxProgramBytes)
	if aerr != nil {
		if aerr.Status < 400 || aerr.Status > 599 || aerr.Code == "" {
			t.Fatalf("decode error without a sane status/code: %+v", aerr)
		}
		return
	}
	resp := s.process(req, run, "fuzz")
	if resp == nil {
		t.Fatal("process returned nil response")
	}
	if resp.Error != nil {
		if resp.Error.Status < 400 || resp.Error.Status > 599 || resp.Error.Code == "" {
			t.Fatalf("error response without a sane status/code: %+v", resp.Error)
		}
		if resp.Error.Status == http.StatusInternalServerError {
			t.Fatalf("5xx from arbitrary client input: %+v", resp.Error)
		}
	}
}

// FuzzServeRequest fuzzes the untrusted request surface end to end:
// JSON and raw-.mir bodies through DecodeRequest and, when they
// decode, through the full compile/execute pipeline. The invariants:
// no panics anywhere (parser, verifier, ADE, bytecode compiler, VM),
// and every failure is a structured 4xx — arbitrary client bytes must
// never produce a 500.
func FuzzServeRequest(f *testing.F) {
	valid := `fn u64 @main(): exported
  %s := new Set<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %s1 := insert(%s0, %i)
    %i1 := add(%i, 1)
    %more := lt(%i1, 50)
  while %more
  %sF := phi(%s0)
  %n := size(%sF)
  emit(%n)
  ret %n
`
	f.Add([]byte(`{"program":"fn u64 @main(): exported\n  ret 0\n"}`), true, true)
	f.Add([]byte(`{"program":`+jsonQuote(valid)+`,"engine":"vm","telemetry":true}`), true, true)
	f.Add([]byte(`{"program":`+jsonQuote(valid)+`,"maxSteps":100}`), true, true)
	f.Add([]byte(`{"program":"x","options":{"setImpl":"bitset","sharing":false}}`), true, false)
	f.Add([]byte(`{"program":"x","fault":"alloc-fail:1"}`), true, true)
	f.Add([]byte(`{"program":"x","unknown":1}`), true, true)
	f.Add([]byte(`{"program":"x"} trailing`), true, true)
	f.Add([]byte(`{"program":"x","args":[1,2,3],"entry":"f"}`), true, true)
	f.Add([]byte(`{"program":"x","maxMemBytes":-1}`), true, true)
	f.Add([]byte(`not json at all`), true, true)
	f.Add([]byte(valid), false, true)
	f.Add([]byte("fn u64 @main(): exported\n  %z := sub(1, 1)\n  %d := div(1, %z)\n  ret %d\n"), false, true)
	f.Add([]byte("fn u64 @main(: exported"), false, true)
	f.Add([]byte("\x00\xff\xfe"), false, false)
	f.Add([]byte(""), false, true)

	s := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte, isJSON, run bool) {
		ct := "text/x-mir"
		if isJSON {
			ct = "application/json"
		}
		serveOne(t, s, body, ct, run)
	})
}

// TestServeCrasherCorpus replays checked-in regression inputs for the
// serving surface (testdata/crashers/serve at the repo root). Files
// ending in .json are JSON request bodies; .mir files are raw-body
// requests. Each was once a live finding or a hardening edge; the
// replay asserts structured handling, no panics.
func TestServeCrasherCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "crashers", "serve")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no serve crasher corpus at %s: %v", dir, err)
	}
	s := fuzzServer()
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			body, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			ct := "text/x-mir"
			if strings.HasSuffix(name, ".json") {
				ct = "application/json"
			}
			serveOne(t, s, body, ct, true)
		})
	}
}

// jsonQuote is a minimal JSON string quoter for seed construction.
func jsonQuote(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)
	return `"` + r.Replace(s) + `"`
}
