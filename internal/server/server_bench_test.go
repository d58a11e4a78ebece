package server

import (
	"fmt"
	"net/http"
	"testing"
)

// benchServe posts one request and fails the benchmark on any error.
func benchServe(b *testing.B, h http.Handler, req Request) *Response {
	b.Helper()
	resp, status := postJSON(b, h, "/v1/run", req)
	if status != http.StatusOK || !resp.OK {
		b.Fatalf("request failed: %d %+v", status, resp.Error)
	}
	return resp
}

// BenchmarkServeHot measures the steady-state cached path: the
// artifact comes from the raw-text alias (no parse, no ADE, no
// compile), so per-request cost is decode + execute + encode.
func BenchmarkServeHot(b *testing.B) {
	s, err := New(Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.pool.Close()
	h := s.Handler()
	benchServe(b, h, Request{Program: histProg}) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServe(b, h, Request{Program: histProg})
	}
	b.StopTimer()
	if hits := s.CacheStats().Hits; hits < uint64(b.N) {
		b.Fatalf("expected >=%d cache hits, got %d", b.N, hits)
	}
}

// BenchmarkServeCold measures the full pipeline per request
// (noCache): parse + verify + ADE + verify + bytecode compile + run.
// Hot/cold is the cache's amortized win.
func BenchmarkServeCold(b *testing.B) {
	s, err := New(Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.pool.Close()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServe(b, h, Request{Program: histProg, NoCache: true})
	}
}

// BenchmarkServeHotParallel is the hot path under client concurrency:
// concurrent VMs share one immutable bytecode artifact.
func BenchmarkServeHotParallel(b *testing.B) {
	s, err := New(Config{Workers: 8, Backlog: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer s.pool.Close()
	h := s.Handler()
	benchServe(b, h, Request{Program: histProg})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, status := postJSON(b, h, "/v1/run", Request{Program: histProg})
			if status != http.StatusOK || !resp.OK {
				panic(fmt.Sprintf("request failed: %d %+v", status, resp.Error))
			}
		}
	})
}
