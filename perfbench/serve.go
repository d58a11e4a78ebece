package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"memoir/internal/interp"
	"memoir/internal/parser"
	"memoir/internal/server"
	"memoir/internal/server/cache"
	"memoir/internal/server/loadtest"
)

// serveClients is the closed loop's client count: one per core of the
// two-core machine the benchmark is sized for.
const serveClients = 2

// hotPerCold is how many hot requests come per cold one. No recorded
// traffic gives the ratio, so it is the mix of the load harness's
// "mixed" phase (internal/server/loadtest), which alternates the
// cached program with fresh variants.
const hotPerCold = 1

// serveProgram is one self-contained program of the hot set. Cold
// requests are renamed variants of the same programs.
type serveProgram struct {
	name   string
	text   string
	args   []uint64
	weight int
	// ownMean marks a program no class percentile falls on; it gets a
	// mean latency metric of its own.
	ownMean bool
	// body is the byte-identical hot request.
	body []byte
	// rename is the value cold variants rename; renaming changes the
	// program hash but neither the work nor the result.
	rename *regexp.Regexp
	oracle serveOutcome
}

// serveOutcome is what every response for a program must carry: the
// result and output summary of the untransformed program on interp.
type serveOutcome struct {
	Result     string
	Sum, Count uint64
}

// serveSet lists the hot set with its traffic weights. No recorded
// traffic says how often each program is sent, so the weights are
// assumptions, each for a reason. Each program's latencies split into
// an uncontended mode and a contended one (the other client busy, or
// the collector running); a statistic that falls between the two
// jumps from seed to seed.
//   - kernel 48: it is the only program the load harness sends, so it
//     stands for the typical request and carries most of the traffic.
//     At 48 of 53, each class's p50 lies near the kernel's 55th
//     percentile, inside its uncontended mode, which reaches about its
//     70th.
//   - coldmap 2, pta 2: nothing prefers one over the other. No class
//     percentile falls on them, so each has a mean latency of its own:
//     a mean, because their medians fall between the modes.
//   - histogram 1: its 50000 elements take over 100 times the kernel's
//     time, so even at 1 it takes about half of the server's time.
//     Each class's p99 lies near its median.
var serveSet = []struct {
	name, file string
	args       []uint64
	weight     int
	ownMean    bool
}{
	{"kernel", "", nil, 48, false},
	{"coldmap", "coldmap.mir", []uint64{0}, 2, true},
	{"pta", "pta.mir", nil, 2, true},
	{"histogram", "histogram.mir", nil, 1, false},
}

var firstDef = regexp.MustCompile(`%([A-Za-z0-9_$.]+) :=`)

// loadServePrograms reads the hot set from the repository's testdata
// and computes each program's oracle on the interpreter.
func loadServePrograms(root string) ([]*serveProgram, error) {
	var out []*serveProgram
	for _, e := range serveSet {
		p := &serveProgram{name: e.name, args: e.args, weight: e.weight, ownMean: e.ownMean}
		if e.file == "" {
			p.text = strings.ReplaceAll(loadtest.DefaultProgram, "%MOD%", "97")
		} else {
			b, err := os.ReadFile(filepath.Join(root, "testdata", e.file))
			if err != nil {
				return nil, err
			}
			p.text = string(b)
		}
		def := firstDef.FindStringSubmatch(p.text)
		if def == nil {
			return nil, fmt.Errorf("%s: no value to rename", p.name)
		}
		p.rename = regexp.MustCompile(`(` + regexp.QuoteMeta("%"+def[1]) + `)([^A-Za-z0-9_$.]|$)`)
		var err error
		if p.oracle, err = interpOutcome(p.text, p.args); err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", p.name, err)
		}
		if p.body, err = runBody(p.text, p.args); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// variant is the k-th cold spelling of p: its first value renamed.
func (p *serveProgram) variant(k int) string {
	return p.rename.ReplaceAllString(p.text, fmt.Sprintf("${1}_c%d${2}", k))
}

// interpOutcome runs the untransformed program on the interpreter.
func interpOutcome(text string, args []uint64) (serveOutcome, error) {
	prog, err := parser.Parse(text)
	if err != nil {
		return serveOutcome{}, err
	}
	ip := interp.New(prog, interp.DefaultOptions())
	vals := make([]interp.Val, len(args))
	for i, a := range args {
		vals[i] = interp.IntV(a)
	}
	ret, err := ip.Run("main", vals...)
	if err != nil {
		return serveOutcome{}, err
	}
	return serveOutcome{ret.String(), ip.Stats.EmitSum, ip.Stats.EmitCount}, nil
}

// runBody is a /v1/run request that names the VM explicitly.
func runBody(text string, args []uint64) ([]byte, error) {
	return json.Marshal(server.Request{Program: text, Engine: "vm", Args: args})
}

// reqSpec is one request of the seeded sequence.
type reqSpec struct {
	prog    int
	cold    bool
	variant int // cold variants are numbered from 0, never reused
}

// sequence hands out the seeded request sequence. Traffic comes in
// blocks that hold every program weight×hotPerCold times hot and
// weight times cold, shuffled by the seed, so every prefix of whole
// blocks has the exact mix.
type sequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	progs []*serveProgram
	block []reqSpec
	cold  int
}

func newSequence(progs []*serveProgram, seed int64) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), progs: progs}
}

func (s *sequence) next() reqSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		for i, p := range s.progs {
			for j := 0; j < p.weight*hotPerCold; j++ {
				s.block = append(s.block, reqSpec{prog: i})
			}
			for j := 0; j < p.weight; j++ {
				s.block = append(s.block, reqSpec{prog: i, cold: true})
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	r := s.block[0]
	s.block = s.block[1:]
	if r.cold {
		r.variant = s.cold
		s.cold++
	}
	return r
}

// serveFixture is a server with its hot set compiled and cached.
type serveFixture struct {
	srv   *server.Server
	h     http.Handler
	progs []*serveProgram
	seq   *sequence
}

func setupServe(root string, seed int64) (*serveFixture, error) {
	progs, err := loadServePrograms(root)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		return nil, err
	}
	f := &serveFixture{srv: srv, h: srv.Handler(), progs: progs, seq: newSequence(progs, seed)}
	// Fill the cache with the hot set so hot requests are hits.
	for _, p := range progs {
		resp, err := f.post(p.body)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("prime %s: %w", p.name, err)
		}
		if err := p.check(resp); err != nil {
			f.close()
			return nil, fmt.Errorf("prime %s: %w", p.name, err)
		}
	}
	return f, nil
}

func (f *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
}

// post sends one /v1/run request through the handler in process.
func (f *serveFixture) post(body []byte) (*server.Response, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, r)
	var resp server.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("status %d: bad response: %w", w.Code, err)
	}
	if w.Code != http.StatusOK {
		return &resp, fmt.Errorf("status %d", w.Code)
	}
	return &resp, nil
}

// phases reads the /v1/stats pipeline phase counters.
func (f *serveFixture) phases() (parses, compiles uint64, err error) {
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, r)
	var doc struct {
		Phases struct {
			Parses   uint64 `json:"parses"`
			Compiles uint64 `json:"compiles"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		return 0, 0, fmt.Errorf("/v1/stats: %w", err)
	}
	return doc.Phases.Parses, doc.Phases.Compiles, nil
}

// check compares a response with the program's oracle.
func (p *serveProgram) check(resp *server.Response) error {
	if !resp.OK || resp.Output == nil {
		msg := "not ok"
		if resp.Error != nil {
			msg = resp.Error.Code + ": " + resp.Error.Message
		}
		return fmt.Errorf("%s", msg)
	}
	got := serveOutcome{resp.Result, resp.Output.Checksum, resp.Output.Count}
	if got != p.oracle {
		return fmt.Errorf("output %+v, oracle %+v", got, p.oracle)
	}
	return nil
}

// serveSample is one completed request.
type serveSample struct {
	prog   int
	cold   bool
	text   string // cold requests only, for the traced replay
	latMs  float64
	wallMs float64
}

// serveResult is one pass of the serve-mixed section.
type serveResult struct {
	progs             []*serveProgram
	samples           []serveSample
	replayed          []serveSample // the cold samples replayCold replayed
	hot, cold         int
	elapsed           time.Duration // summed over slices
	attempted, failed int
	errs              []string
	hitRatio          float64
	evictions         uint64
	parses, compiles  uint64
	// hotStats are each program's first hot run counts; the traced
	// pass must reproduce them.
	hotStats map[string]server.RunStats

	// Cache and phase counters at the start of the pass.
	cache0            cache.Stats
	parses0, compile0 uint64
}

func newServeResult(f *serveFixture) *serveResult {
	res := &serveResult{progs: f.progs, hotStats: map[string]server.RunStats{}, cache0: f.srv.CacheStats()}
	var err error
	if res.parses0, res.compile0, err = f.phases(); err != nil {
		res.fail(err.Error())
	}
	return res
}

// short reports whether a class has fewer than n completed requests.
// After a failure it is never short, so a broken server cannot keep a
// run alive.
func (res *serveResult) short(n int) bool {
	return res.failed == 0 && (res.hot < n || res.cold < n)
}

// slice drives the handler with serveClients closed-loop clients until
// deadline. With a tracer, every request is a span, every body also
// goes through server.DecodeRequest, and cold programs are kept for
// replayCold.
func (res *serveResult) slice(f *serveFixture, deadline time.Time, tr *tracer) {
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				spec := f.seq.next()
				p := f.progs[spec.prog]
				body, text := p.body, ""
				if spec.cold {
					text = p.variant(spec.variant)
					var err error
					if body, err = runBody(text, p.args); err != nil {
						panic(err) // a Request always marshals
					}
				}
				if tr != nil {
					start := time.Now()
					server.DecodeRequest(body, "application/json", nil, server.DefaultConfig().MaxProgramBytes)
					tr.setLane(tr.add(0, "server.DecodeRequest", p.name, start, time.Since(start)), 1+lane)
				}
				t0 := time.Now()
				resp, err := f.post(body)
				lat := time.Since(t0)
				if tr != nil && resp != nil {
					id := tr.add(0, "client.request", resp.ID, t0, lat)
					tr.setLane(id, 1+lane)
				}
				if err == nil {
					err = p.check(resp)
				}
				mu.Lock()
				switch {
				case err != nil:
					res.fail(fmt.Sprintf("%s (cold=%v): %v", p.name, spec.cold, err))
				default:
					res.attempted++
					res.samples = append(res.samples, serveSample{prog: spec.prog, cold: spec.cold, text: text, latMs: ms(lat), wallMs: resp.WallMs})
					if spec.cold {
						res.cold++
					} else {
						res.hot++
						if _, ok := res.hotStats[p.name]; !ok {
							res.hotStats[p.name] = *resp.Stats
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed += time.Since(start)
}

// fail records one failed operation.
func (res *serveResult) fail(msg string) {
	res.attempted++
	res.failed++
	res.errs = append(res.errs, msg)
}

// finish reads the pass's cache and phase counter deltas.
func (res *serveResult) finish(f *serveFixture) {
	cs := f.srv.CacheStats()
	parses, compiles, err := f.phases()
	if err != nil {
		res.fail(err.Error())
	}
	hits, misses := cs.Hits-res.cache0.Hits, cs.Misses-res.cache0.Misses
	if hits+misses > 0 {
		res.hitRatio = float64(hits) / float64(hits+misses)
	}
	res.evictions = cs.Evictions - res.cache0.Evictions
	res.parses, res.compiles = parses-res.parses0, compiles-res.compile0
}

// class returns pick(sample) over the samples of one class, of one
// program or of all (prog < 0).
func (res *serveResult) class(cold bool, prog int, pick func(serveSample) float64) []float64 {
	var xs []float64
	for _, s := range res.samples {
		if s.cold == cold && (prog < 0 || s.prog == prog) {
			xs = append(xs, pick(s))
		}
	}
	return xs
}

func latOf(s serveSample) float64      { return s.latMs }
func execOf(s serveSample) float64     { return s.wallMs }
func overheadOf(s serveSample) float64 { return s.latMs - s.wallMs }

func (res *serveResult) endToEnd(m *metrics) {
	hot, cold := res.class(false, -1, latOf), res.class(true, -1, latOf)
	m.set("hot_p50_ms", "ms", quantile(hot, 0.50))
	m.set("hot_p99_ms", "ms", quantile(hot, 0.99))
	m.set("cold_p50_ms", "ms", quantile(cold, 0.50))
	m.set("cold_p99_ms", "ms", quantile(cold, 0.99))
	for i, p := range res.progs {
		if p.ownMean {
			m.set(p.name+"_mean_ms", "ms", mean(append(res.class(false, i, latOf), res.class(true, i, latOf)...)))
		}
	}
	m.set("req_per_s", "1/s", float64(len(res.samples))/res.elapsed.Seconds())
}

// rows prints each hot-set program's latencies per class, so the
// program each class percentile falls on can be read off.
func (res *serveResult) rows(say func(format string, args ...any)) {
	say("%-9s %6s %9s %9s %6s %9s %9s %9s", "program", "hot_n", "hot_p50", "hot_p99", "cold_n", "cold_p50", "cold_p99", "mean")
	for i, p := range res.progs {
		hot, cold := res.class(false, i, latOf), res.class(true, i, latOf)
		say("%-9s %6d %9.3f %9.3f %6d %9.3f %9.3f %9.3f", p.name,
			len(hot), quantile(hot, 0.50), quantile(hot, 0.99), len(cold), quantile(cold, 0.50), quantile(cold, 0.99),
			mean(append(hot, cold...)))
	}
}

// replayCold sends up to n of the pass's cold programs through the
// compile path outside the server, so the cold overhead splits by
// stage.
func (res *serveResult) replayCold(tr *tracer, n int) error {
	var cold []serveSample
	for _, s := range res.samples {
		if s.cold {
			cold = append(cold, s)
		}
	}
	res.replayed = cold
	if len(cold) > n {
		step := len(cold) / n
		res.replayed = make([]serveSample, 0, n)
		for i := 0; i < len(cold) && len(res.replayed) < n; i += step {
			res.replayed = append(res.replayed, cold[i])
		}
	}
	for i, s := range res.replayed {
		key := fmt.Sprintf("cold-%d", i)
		root := tr.open(0, "replay", key)
		_, err := compileText(s.text, compileOpts(), tr, root, key)
		tr.close(root)
		if err != nil {
			return fmt.Errorf("replay %s: %w", key, err)
		}
	}
	return nil
}

func (res *serveResult) perLayer(m *metrics, tr *tracer) {
	m.set("server.exec_ms.hot", "ms", median(res.class(false, -1, execOf)))
	m.set("server.exec_ms.cold", "ms", median(res.class(true, -1, execOf)))
	m.set("server.overhead_ms.hot", "ms", median(res.class(false, -1, overheadOf)))
	m.set("server.overhead_ms.cold", "ms", median(res.class(true, -1, overheadOf)))
	var decode []float64
	for _, xs := range tr.durations("", "server.DecodeRequest") {
		decode = append(decode, xs...)
	}
	m.set("server.decode_us", "us", median(decode))
	m.set("server.cache.hit_ratio", "ratio", res.hitRatio)
	m.set("server.cache.evictions", "count", float64(res.evictions))
	n := float64(len(res.samples))
	m.set("server.parses_per_req", "ratio", float64(res.parses)/n)
	m.set("server.compiles_per_req", "ratio", float64(res.compiles)/n)
	// Each replay has its own key, so a stage's time for one replayed
	// request is the sum of its calls' self times under that key.
	total := map[string]float64{}
	stage := func(metric string, names ...string) {
		perKey := map[string]float64{}
		for _, name := range names {
			for key, xs := range tr.selfTimes("replay", name) {
				for _, x := range xs {
					perKey[key] += x
				}
			}
		}
		for key, x := range perKey {
			total[key] += x
		}
		m.set(metric, "us", median(values(perKey)))
	}
	stage("server.cold_replay.parse_us", "parser.Parse")
	stage("server.cold_replay.verify_us", "ir.Verify")
	stage("server.cold_replay.apply_us", append([]string{"core.Apply"}, prefixed("core.", subPasses)...)...)
	stage("server.cold_replay.bytecode_us", "bytecode.Compile", "bytecode.Verify")
	// The remainder is a mean over the replayed requests themselves, so
	// it subtracts: their cold overhead minus their replayed stages.
	if len(res.replayed) == 0 {
		m.errs = append(m.errs, "server.cold_replay.rest_ms: no cold request to replay")
		return
	}
	var rest float64
	for i, s := range res.replayed {
		rest += overheadOf(s) - total[fmt.Sprintf("cold-%d", i)]/1e3
	}
	m.set("server.cold_replay.rest_ms", "ms", rest/float64(len(res.replayed)))
}

func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}
