package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memoir/internal/telemetry"
)

type atomicCounter struct{ v atomic.Uint64 }

func (c *atomicCounter) Add(n uint64) { c.v.Add(n) }
func (c *atomicCounter) Load() uint64 { return c.v.Load() }

// PhaseCounters are the cumulative pipeline-phase execution counts.
// They are the server-side ground truth for "the cache worked": a
// hot-cache request advances none of them, and TestRunColdThenHot
// asserts exactly that between two identical requests.
type PhaseCounters struct {
	Parses     atomicCounter
	ADEApplies atomicCounter
	Compiles   atomicCounter
}

type phaseSnapshot struct {
	Parses     uint64 `json:"parses"`
	ADEApplies uint64 `json:"adeApplies"`
	Compiles   uint64 `json:"compiles"`
}

func (p *PhaseCounters) snapshot() phaseSnapshot {
	return phaseSnapshot{
		Parses:     p.Parses.Load(),
		ADEApplies: p.ADEApplies.Load(),
		Compiles:   p.Compiles.Load(),
	}
}

// latencyHist is a fixed-bound histogram of request durations. The
// bucket upper bounds grow geometrically from 50µs to ~26s; the
// percentile estimate returns the upper bound of the bucket the
// requested quantile falls in (documented as an upper-bound
// estimate in /v1/stats; exact client-side percentiles come from
// perfbench's serve-mixed workload).
type latencyHist struct {
	mu      sync.Mutex
	bounds  []time.Duration
	buckets []uint64
	count   uint64
	sum     time.Duration
}

func newLatencyHist() *latencyHist {
	var bounds []time.Duration
	for b := 50 * time.Microsecond; b < 30*time.Second; b = b * 2 {
		bounds = append(bounds, b)
	}
	return &latencyHist{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

func (h *latencyHist) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i]++
	h.count++
	h.sum += d
}

// quantile returns the upper bound of the bucket containing quantile
// q in (0,1].
func (h *latencyHist) quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] * 2
		}
	}
	return h.bounds[len(h.bounds)-1] * 2
}

func (h *latencyHist) meanMs() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum.Microseconds()) / float64(h.count) / 1000
}

// teleAggregate folds per-request telemetry results into a running
// suite-level summary, reusing internal/telemetry's Result shape as
// the source. It answers "what is this fleet of guest programs doing
// to its collections" without retaining per-request data.
type teleAggregate struct {
	mu       sync.Mutex
	requests uint64
	sites    uint64
	enums    uint64
	collOps  uint64
	transOps uint64 // enc+dec+add across all enumerations
}

func (a *teleAggregate) fold(t *telemetry.Telemetry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.requests++
	a.sites += uint64(len(t.Sites))
	a.enums += uint64(len(t.Enums))
	for _, s := range t.Sites {
		a.collOps += s.Total()
	}
	for _, e := range t.Enums {
		a.transOps += e.Trans()
	}
}

type teleSnapshot struct {
	Requests uint64 `json:"requests"`
	Sites    uint64 `json:"sites"`
	Enums    uint64 `json:"enums"`
	CollOps  uint64 `json:"collOps"`
	TransOps uint64 `json:"transOps"`
}

func (a *teleAggregate) snapshot() teleSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return teleSnapshot{
		Requests: a.requests,
		Sites:    a.sites,
		Enums:    a.enums,
		CollOps:  a.collOps,
		TransOps: a.transOps,
	}
}

// errCodeCounters tracks error responses by stable code.
type errCodeCounters struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newErrCodeCounters() *errCodeCounters { return &errCodeCounters{m: map[string]uint64{}} }

func (c *errCodeCounters) inc(code string) {
	c.mu.Lock()
	c.m[code]++
	c.mu.Unlock()
}

func (c *errCodeCounters) snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
