// RunChaos checks that the daemon never serves *wrong* under injected
// store faults and hard restarts.
//
// The harness precomputes ground-truth outputs for every program
// variant on a pristine, store-less server, then drives a sequence of
// epochs against a shared durable store directory. Each epoch builds
// a fresh server over that store (startup recovery included), fires a
// slice of the request budget at it with an injected I/O fault
// (write-fail / torn-write / corrupt-on-read), and then either drains
// cleanly or hard-abandons the server with no shutdown at all. A
// hard abandon never flushes anything — combined with torn-write
// faults it is the in-process stand-in for kill -9 landing between a
// write and its fsync (the real kill -9 leg lives in CI).
//
// The invariant is absolute: every 2xx response must match the
// precomputed output byte for byte, and every error must carry a
// known structured code. Corruption may cost a recompile; it must
// never change an answer.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"memoir/internal/server"
)

// ChaosConfig parameterizes a chaos run.
type ChaosConfig struct {
	Requests    int    // total requests across all epochs (default 500)
	Concurrency int    // parallel clients per epoch (default 8)
	Programs    int    // distinct program variants (default 12)
	StoreDir    string // durable store root, shared by every epoch (required)
	// Faults is the per-epoch store fault plan (internal/faults I/O
	// point names; "" = no fault that epoch). Defaults to one epoch
	// per I/O fault kind bracketed by clean epochs. Epoch count =
	// len(Faults).
	Faults []string
}

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Epochs   int
	Restarts int // server incarnations beyond the first
	Requests int
	OK       int // 2xx responses, all verified byte-identical
	Wrong    int // THE number: answers that contradicted ground truth
	Clean    int // structured errors with known codes (load shedding etc.)
	// RecoveredHits counts post-restart responses served without any
	// pipeline phase running — proof that recovery actually warmed
	// the cache rather than silently recompiling.
	RecoveredHits int
	// Quarantined is the store's final quarantine tally (corrupt
	// files renamed aside, never deleted).
	Quarantined uint64
}

func (c *ChaosConfig) fill() {
	if c.Requests <= 0 {
		c.Requests = 500
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Programs <= 0 {
		c.Programs = 12
	}
	if len(c.Faults) == 0 {
		c.Faults = []string{"", "torn-write:1", "corrupt-on-read:1", "write-fail:1", ""}
	}
}

// expected is the ground truth for one program variant.
type expected struct {
	result   string
	count    uint64
	checksum uint64
}

// cleanCodes are the error codes a chaos run may legitimately see:
// load shedding and drain rejections. Anything else — and any other
// code paired with a wrong body — is a harness failure.
var cleanCodes = map[string]bool{
	"overloaded":    true,
	"shutting-down": true,
	"quarantined":   true,
}

// RunChaos executes the chaos schedule and returns the report. The
// caller owns asserting Wrong == 0 (and typically RecoveredHits > 0).
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg.fill()
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("chaos: StoreDir is required")
	}

	// Ground truth from a pristine, store-less server: one run per
	// variant, no faults anywhere. The extra len(Faults) variants are
	// the per-epoch fresh programs (see runChaosEpoch).
	truth, err := groundTruth(cfg, cfg.Programs+len(cfg.Faults))
	if err != nil {
		return nil, err
	}

	rep := &ChaosReport{Epochs: len(cfg.Faults)}
	perEpoch := cfg.Requests / len(cfg.Faults)
	if perEpoch < 1 {
		perEpoch = 1
	}
	for epoch, fault := range cfg.Faults {
		scfg := server.DefaultConfig()
		scfg.Workers = cfg.Concurrency
		scfg.Backlog = 4 * cfg.Concurrency
		// A cache smaller than the variant set forces mid-epoch
		// evictions, so disk hot-loads happen under fire, not just at
		// recovery.
		scfg.CacheEntries = cfg.Programs/2 + 1
		scfg.StoreDir = cfg.StoreDir
		scfg.StoreFault = fault
		scfg.PersistProfile = true
		scfg.ProfileSnapshotEvery = -1 // no ticker: abandoned epochs must not leak writers
		s, err := server.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("chaos: epoch %d: %w", epoch, err)
		}
		if epoch > 0 {
			rep.Restarts++
		}
		runChaosEpoch(s, cfg, truth, perEpoch, epoch, rep)
		// Stats are per-incarnation; the report accumulates across the
		// whole run.
		if ss, ok := s.StoreStats(); ok {
			rep.Quarantined += ss.Quarantined
		}
		if epoch%2 == 0 {
			// Clean drain: flushes the profile snapshot and stops the
			// pool. Odd epochs are hard-abandoned instead — the server
			// is simply dropped, nothing is flushed or stopped.
			s.Shutdown(context.Background())
		}
	}
	return rep, nil
}

// runChaosEpoch fires perEpoch requests at s and verifies every
// answer against ground truth.
func runChaosEpoch(s *server.Server, cfg ChaosConfig, truth []expected, perEpoch, epoch int, rep *ChaosReport) {
	h := s.Handler()
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Mostly the shared variant set (already persisted by
				// earlier epochs, so restarts exercise recovery), but a
				// sprinkle of this epoch's fresh variant forces at least
				// one real compile + store write per epoch — the write
				// faults need a write to sabotage.
				v := i % cfg.Programs
				if i%25 == 0 {
					v = cfg.Programs + epoch
				}
				resp, err := chaosPost(h, request{Program: variant(v)})
				mu.Lock()
				rep.Requests++
				switch {
				case err != nil:
					// Transport-level failure or an unparseable body:
					// never acceptable, whatever the status was.
					rep.Wrong++
				case resp.OK:
					want := truth[v]
					if resp.Result != want.result || resp.Output == nil ||
						resp.Output.Count != want.count || resp.Output.Checksum != want.checksum {
						rep.Wrong++
					} else {
						rep.OK++
						if epoch > 0 && resp.Phases != nil &&
							!resp.Phases.Parsed && !resp.Phases.ADE && !resp.Phases.Compiled {
							rep.RecoveredHits++
						}
					}
				case resp.Error != nil && cleanCodes[resp.Error.Code]:
					rep.Clean++
				default:
					rep.Wrong++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < perEpoch; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// groundTruth runs the first n variants once on a fault-free,
// store-less server and records the expected result and output
// summary for each.
func groundTruth(cfg ChaosConfig, n int) ([]expected, error) {
	scfg := server.DefaultConfig()
	scfg.Workers = 2
	s, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	out := make([]expected, n)
	for v := 0; v < n; v++ {
		resp, err := chaosPost(h, request{Program: variant(v)})
		if err != nil {
			return nil, fmt.Errorf("chaos: ground truth variant %d: %w", v, err)
		}
		if !resp.OK || resp.Output == nil {
			return nil, fmt.Errorf("chaos: ground truth variant %d failed", v)
		}
		out[v] = expected{result: resp.Result, count: resp.Output.Count, checksum: resp.Output.Checksum}
	}
	return out, nil
}

// chaosPost sends one request and decodes the response without
// folding an HTTP status into a Go error: chaos classifies every
// structured response itself, and a 503 with a clean code is a
// legitimate answer, not a transport failure.
func chaosPost(h http.Handler, req request) (*response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	raw, err := io.ReadAll(w.Result().Body)
	if err != nil {
		return nil, err
	}
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("bad response JSON (http %d): %w", w.Code, err)
	}
	return &resp, nil
}

// FormatChaos renders the chaos report.
func FormatChaos(r *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d epochs (%d restarts), %d requests\n", r.Epochs, r.Restarts, r.Requests)
	fmt.Fprintf(&b, "  verified OK:    %d (every byte checked against ground truth)\n", r.OK)
	fmt.Fprintf(&b, "  wrong answers:  %d\n", r.Wrong)
	fmt.Fprintf(&b, "  clean errors:   %d\n", r.Clean)
	fmt.Fprintf(&b, "  recovered hits: %d (served post-restart with no pipeline phase)\n", r.RecoveredHits)
	fmt.Fprintf(&b, "  quarantined:    %d store files renamed aside\n", r.Quarantined)
	return b.String()
}
