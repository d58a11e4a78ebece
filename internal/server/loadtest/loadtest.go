// Package loadtest is the in-process load harness for adeserved. It
// drives an http.Handler (no sockets: the numbers isolate server +
// pipeline cost from the network) through three phases and reports
// exact client-side latency percentiles:
//
//	cold  — every request bypasses the artifact cache (noCache), so
//	        each one pays parse + ADE + compile + run.
//	hot   — identical requests after one priming call; every request
//	        after the first is served from the compiled-artifact
//	        cache via the raw-text alias (no parse at all).
//	mixed — alternating cached program and fresh variants.
//
// The hot/cold ratio is the headline number for the content-addressed
// cache: it is the compile pipeline cost amortized away per request.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultProgram is the histogram kernel used when Config.Program is
// empty: a sparse-keyed map build + probe loop that ADE enumerates,
// so the compile side does real optimization work. The %MOD% marker
// is replaced to mint distinct-but-equal-cost program variants.
const DefaultProgram = `fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %h := mul(%i, 2654435761)
    %v := rem(%h, %MOD%)
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

// Config parameterizes a load run.
type Config struct {
	Requests    int    // requests per phase (default 200)
	Concurrency int    // parallel clients (default 8)
	Program     string // .mir template; %MOD% is the variant marker
}

// Phase is the result of one load phase.
type Phase struct {
	Name      string
	Requests  int
	Errors    int
	CacheHits int
	Duration  time.Duration
	ReqPerSec float64
	Mean      time.Duration
	P50       time.Duration
	P90       time.Duration
	P99       time.Duration
}

func (c *Config) fill() {
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Program == "" {
		c.Program = DefaultProgram
	}
}

// variant mints the i-th distinct program from the template. Variants
// differ in one constant (the hash modulus), so they cost the same to
// compile and run but hash to distinct cache keys.
func (c *Config) variant(i int) string {
	return strings.ReplaceAll(c.Program, "%MOD%", strconv.Itoa(97+2*i))
}

// request is the wire subset the harness sends and reads back. It
// mirrors internal/server's Request/Response without importing it, so
// the harness can also drive a remote daemon's handler stand-in.
type request struct {
	Program string `json:"program"`
	NoCache bool   `json:"noCache,omitempty"`
}

type response struct {
	OK    bool `json:"ok"`
	Cache *struct {
		Hit  bool `json:"hit"`
		Disk bool `json:"disk"`
	} `json:"cache"`
	Phases *struct {
		Parsed   bool `json:"parsed"`
		ADE      bool `json:"ade"`
		Compiled bool `json:"compiled"`
	} `json:"phases"`
	Result string `json:"result"`
	Output *struct {
		Count    uint64 `json:"count"`
		Checksum uint64 `json:"checksum"`
	} `json:"output"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Run executes the three phases against h and returns their results
// in order: cold, hot, mixed.
func Run(h http.Handler, cfg Config) ([]Phase, error) {
	cfg.fill()
	// Prime the hot program once so the hot phase measures pure cache
	// hits, not one cold outlier.
	hot := request{Program: cfg.variant(0)}
	if _, _, err := post(h, hot); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	phases := []struct {
		name string
		gen  func(i int) request
	}{
		{"cold", func(i int) request {
			return request{Program: cfg.variant(0), NoCache: true}
		}},
		{"hot", func(i int) request { return hot }},
		{"mixed", func(i int) request {
			if i%2 == 0 {
				return hot
			}
			// Fresh variants: first occurrence misses, and with more
			// variants than cache slots some re-miss later too.
			return request{Program: cfg.variant(1 + i/2)}
		}},
	}
	var out []Phase
	for _, p := range phases {
		ph, err := runPhase(h, cfg, p.name, p.gen)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", p.name, err)
		}
		out = append(out, ph)
	}
	return out, nil
}

func runPhase(h http.Handler, cfg Config, name string, gen func(i int) request) (Phase, error) {
	lat := make([]time.Duration, cfg.Requests)
	hits := make([]bool, cfg.Requests)
	errs := make([]bool, cfg.Requests)
	jobs := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex

	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				resp, _, err := post(h, gen(i))
				lat[i] = time.Since(t0)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					errs[i] = true
					continue
				}
				if !resp.OK {
					errs[i] = true
				}
				if resp.Cache != nil && resp.Cache.Hit {
					hits[i] = true
				}
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	dur := time.Since(start)
	if firstErr != nil {
		return Phase{}, firstErr
	}

	ph := Phase{Name: name, Requests: cfg.Requests, Duration: dur}
	for i := range lat {
		if errs[i] {
			ph.Errors++
		}
		if hits[i] {
			ph.CacheHits++
		}
		ph.Mean += lat[i]
	}
	ph.Mean /= time.Duration(cfg.Requests)
	ph.ReqPerSec = float64(cfg.Requests) / dur.Seconds()
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	ph.P50 = quantile(sorted, 0.50)
	ph.P90 = quantile(sorted, 0.90)
	ph.P99 = quantile(sorted, 0.99)
	return ph, nil
}

// quantile returns the exact q-quantile of a sorted latency slice
// (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func post(h http.Handler, req request) (*response, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	raw, err := io.ReadAll(w.Result().Body)
	if err != nil {
		return nil, w.Code, err
	}
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, w.Code, fmt.Errorf("bad response JSON: %w", err)
	}
	if resp.Error != nil && w.Code >= 500 {
		return nil, w.Code, fmt.Errorf("server error %d %s: %s", w.Code, resp.Error.Code, resp.Error.Message)
	}
	return &resp, w.Code, nil
}

// Format renders the phase table for terminals and EXPERIMENTS.md.
func Format(phases []Phase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %9s %9s %7s %10s %10s %10s %10s\n",
		"phase", "requests", "req/s", "hits", "mean", "p50", "p90", "p99")
	for _, p := range phases {
		fmt.Fprintf(&b, "%-6s %9d %9.0f %7d %10s %10s %10s %10s\n",
			p.Name, p.Requests, p.ReqPerSec, p.CacheHits,
			round(p.Mean), round(p.P50), round(p.P90), round(p.P99))
	}
	return b.String()
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
