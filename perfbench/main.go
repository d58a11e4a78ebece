// Command perfbench is the repository's benchmark. It measures the
// paper's suite on the bytecode VM (Fig. 5), the compile pipeline from
// .mir text to verified bytecode, and adeserved under mixed hot/cold
// traffic, checking every output against the interpreter.
//
//	go run . --workload suite-vm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 the run is repeated with
// spans around every call into a layer and the JSON carries the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"memoir/internal/stats"
)

// The three sections every run measures; each cycle of a pass runs
// them in this order.
const (
	secVM      = "vm"
	secCompile = "compile"
	secServe   = "serve"
)

// A workload is built around one section and names the end-to-end
// metric its trace overhead is taken on. A run measures every section,
// so it reports every metric, but the workload's own section gets half
// of the time.
type workload struct{ section, headline string }

var workloads = map[string]workload{
	"suite-vm":      {secVM, "ade_whole_ms"},
	"suite-compile": {secCompile, "compile_ms"},
	"serve-mixed":   {secServe, "hot_p50_ms"},
}

// share is the part of a pass's time a section gets in a workload.
func share(workload, section string) float64 {
	if workloads[workload].section == section {
		return 0.5
	}
	return 0.25
}

// setups is how many times a run builds its fixture; setup_s is the
// median.
const setups = 3

// minServeTail is how many samples each serve class needs beyond its
// p99 in an untraced run.
const minServeTail = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics are a report's values by name. A reduction without a defined
// value, such as a geometric mean over a zero, goes to errs and counts
// as a failure instead of being reported.
type metrics struct {
	vals map[string]metric
	errs []string
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name, unit string, v float64) { m.vals[name] = metric{Value: v, Unit: unit} }

// geomean sets name to the geometric mean of xs.
func (m *metrics) geomean(name, unit string, xs []float64) {
	v, err := stats.GeoMeanStrict(xs)
	if err != nil {
		m.errs = append(m.errs, fmt.Sprintf("%s: %v", name, err))
		return
	}
	m.set(name, unit, v)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root, for testdata
	out      string // where the traced run writes its spans
}

// fixture is everything a run sets up before it measures.
type fixture struct {
	vm      []*vmProgram
	compile []*compileProgram
	serve   *serveFixture
}

func setup(cfg config) (*fixture, error) {
	vm, err := setupVM()
	if err != nil {
		return nil, fmt.Errorf("suite-vm setup: %w", err)
	}
	comp, err := setupCompile()
	if err != nil {
		return nil, fmt.Errorf("suite-compile setup: %w", err)
	}
	srv, err := setupServe(cfg.root, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("serve-mixed setup: %w", err)
	}
	return &fixture{vm: vm, compile: comp, serve: srv}, nil
}

// floors are the minimum amounts of work a section does regardless of
// its time share.
type floors struct{ vmRounds, compileRounds, servePerClass int }

// untracedFloors make every end-to-end metric rest on enough samples:
// per-program medians of at least 3 VM runs and 10 compiles, and a
// p99 with minServeTail samples beyond it in each serve class.
var untracedFloors = floors{3, 10, minServeTail * 100}

// tracedFloors only make every per-layer metric defined.
var tracedFloors = floors{1, 1, 20}

// pass is one measurement of all three sections.
type pass struct {
	vm      *vmResult
	compile *compileResult
	serve   *serveResult
	gc      runtime.MemStats // delta over the pass
}

func (p *pass) attempted() int { return p.vm.attempted + p.compile.attempted + p.serve.attempted }
func (p *pass) failed() int    { return p.vm.failed + p.compile.failed + p.serve.failed }
func (p *pass) errs() []string {
	return append(append(append([]string(nil), p.vm.errs...), p.compile.errs...), p.serve.errs...)
}

// run measures one pass. The sections interleave, so a burst of
// interference from other tenants lands on all of them rather than on
// whichever section ran at the time. Each cycle is one VM round, then
// compile rounds and a serve slice sized from that round's duration
// to the workload's shares. Cycles repeat until the time is up and
// every floor is met; past the time, only sections below their floor
// keep running.
func (f *fixture) run(cfg config, seconds float64, fl floors, tr *tracer) *pass {
	p := &pass{vm: newVMResult(f.vm), compile: newCompileResult(f.compile), serve: newServeResult(f.serve)}
	vmRng := rand.New(rand.NewSource(cfg.seed))
	compileRng := rand.New(rand.NewSource(cfg.seed + 1))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var cycle time.Duration
	for {
		more := time.Now().Before(deadline)
		needVM := more || p.vm.rounds < fl.vmRounds
		needCompile := more || p.compile.rounds < fl.compileRounds
		needServe := more || p.serve.short(fl.servePerClass)
		if !needVM && !needCompile && !needServe {
			break
		}
		if needVM {
			start := time.Now()
			p.vm.round(vmRng, tr)
			cycle = time.Duration(float64(time.Since(start)) / share(cfg.workload, secVM))
		}
		if needCompile {
			end := time.Now().Add(time.Duration(float64(cycle) * share(cfg.workload, secCompile)))
			for {
				p.compile.round(compileRng, tr)
				if !time.Now().Before(end) {
					break
				}
			}
		}
		if needServe {
			p.serve.slice(f.serve, time.Now().Add(time.Duration(float64(cycle)*share(cfg.workload, secServe))), tr)
		}
	}
	if tr != nil {
		p.vm.checkPeaks(tr)
	}
	p.serve.finish(f.serve)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.gc = runtime.MemStats{
		TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
		Mallocs:      after.Mallocs - before.Mallocs,
		NumGC:        after.NumGC - before.NumGC,
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}
	return p
}

func (p *pass) endToEnd() *metrics {
	m := newMetrics()
	p.vm.endToEnd(m)
	p.compile.endToEnd(m)
	p.serve.endToEnd(m)
	return m
}

// sameCounts checks that the traced pass reproduced the untraced
// pass's deterministic counts: VM steps, sparse and dense accesses and
// translations per program and build, ADE decisions per program, and
// the run counts of every hot-set program on the server. The traced
// pass compares modeled peaks with setup's itself.
func sameCounts(plain, traced *pass) []string {
	var bad []string
	for abbr, c := range plain.vm.counts {
		if t, ok := traced.vm.counts[abbr]; ok && t != c {
			bad = append(bad, fmt.Sprintf("vm %s: traced counts %+v, untraced %+v", abbr, t, c))
		}
	}
	for abbr, n := range plain.compile.classes {
		tc, ok := traced.compile.classes[abbr]
		if ok && (tc != n || traced.compile.statics[abbr] != plain.compile.statics[abbr] ||
			traced.compile.rewrites[abbr] != plain.compile.rewrites[abbr]) {
			bad = append(bad, fmt.Sprintf("compile %s: traced ADE decisions differ from untraced", abbr))
		}
	}
	for name, st := range plain.serve.hotStats {
		if t, ok := traced.serve.hotStats[name]; ok && t != st {
			bad = append(bad, fmt.Sprintf("serve %s: traced run stats %+v, untraced %+v", name, t, st))
		}
	}
	return bad
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "suite-vm, suite-compile or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the run's inputs and orders")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	cfg.root = "."
	cfg.out = filepath.Join(".bench_build", "traces")
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite-vm|suite-compile|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg, func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up, measures and returns the result line; say prints the
// human-readable report.
func run(cfg config, say func(format string, args ...any)) (*result, error) {
	say("perfbench: workload %s seed %d seconds %g trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	var fx *fixture
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		f, err := setup(cfg)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if fx != nil {
			fx.serve.close()
		}
		fx = f
	}
	defer fx.serve.close()
	say("setup: %d times, %.3f s median", setups, median(setupTimes))

	res := &result{}
	var errs []string
	var m *metrics
	if !cfg.trace {
		p := fx.run(cfg, cfg.seconds, untracedFloors, nil)
		m = p.endToEnd()
		m.set("setup_s", "s", median(setupTimes))
		report(p, say)
		res.Attempted, res.Failed, errs = p.attempted(), p.failed(), p.errs()
	} else {
		plain := fx.run(cfg, cfg.seconds/2, tracedFloors, nil)
		tr := newTracer()
		traced := fx.run(cfg, cfg.seconds/2, tracedFloors, tr)
		report(traced, say)
		m = newMetrics()
		traced.vm.perLayer(m)
		traced.compile.perLayer(m, tr)
		replayFailed := 0
		if err := traced.serve.replayCold(tr, 100); err != nil {
			errs = append(errs, err.Error())
			replayFailed = 1
		}
		say("cold replay: %d requests", len(traced.serve.replayed))
		traced.serve.perLayer(m, tr)
		runMicro(cfg.seed, tr, m)
		m.set("gc.alloc_mb", "MB", float64(plain.gc.TotalAlloc)/(1<<20))
		m.set("gc.mallocs", "count", float64(plain.gc.Mallocs))
		m.set("gc.cycles", "count", float64(plain.gc.NumGC))
		m.set("gc.pause_ms", "ms", float64(plain.gc.PauseTotalNs)/1e6)
		key := workloads[cfg.workload].headline
		before, after := plain.endToEnd().vals[key].Value, traced.endToEnd().vals[key].Value
		if before > 0 {
			m.set("trace.overhead_pct", "%", 100*(after-before)/before)
		} else {
			m.errs = append(m.errs, "trace.overhead_pct: no untraced "+key)
		}
		say("trace overhead on %s: untraced %.4f, traced %.4f", key, before, after)
		mismatch := sameCounts(plain, traced)
		errs = append(append(append(errs, plain.errs()...), traced.errs()...), mismatch...)
		res.Attempted = plain.attempted() + traced.attempted()
		res.Failed = plain.failed() + traced.failed() + len(mismatch) + replayFailed
		path, err := writeTrace(cfg, tr)
		if err != nil {
			return nil, err
		}
		say("spans: %s", path)
	}
	res.Metrics = m.vals
	res.Attempted += len(m.errs)
	res.Failed += len(m.errs)
	errs = append(errs, m.errs...)
	for i, e := range errs {
		if i == 20 {
			say("... %d more failures", len(errs)-i)
			break
		}
		say("FAILED: %s", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		say("%-36s %14.4f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	say("attempted %d failed %d", res.Attempted, res.Failed)
	return res, nil
}

// report prints each section's work, the per-benchmark Fig. 5 rows and
// the serve sample counts.
func report(p *pass, say func(format string, args ...any)) {
	say("suite-vm: %d rounds, %d runs, %d failed", p.vm.rounds, p.vm.attempted, p.vm.failed)
	p.vm.rows(say)
	say("suite-compile: %d rounds, %d compiles, %d failed", p.compile.rounds, p.compile.attempted, p.compile.failed)
	say("serve-mixed: %d clients, %d requests (%d hot, %d cold) in %.2f s, %d failed",
		serveClients, p.serve.attempted, p.serve.hot, p.serve.cold, p.serve.elapsed.Seconds(), p.serve.failed)
	p.serve.rows(say)
}

func writeTrace(cfg config, tr *tracer) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
