// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV): the benchmark characterization (Fig. 4),
// the headline performance and memory results (Fig. 5), the AArch64
// replay (Fig. 6), the sparse/dense access accounting (Table II), the
// per-operation microbenchmarks (Table III), the ablation study
// (Figs. 7–8), the PTA performance-engineering case study (RQ4), and
// the Swiss-table comparison (Figs. 9–10).
//
// Every execution runs on the bytecode VM. Wall-clock speedups are
// compressed relative to the paper's native-code numbers by the VM's
// constant per-instruction dispatch overhead; the modeled speedups
// (dynamic operation counts replayed through the calibrated
// per-operation cost tables) carry the paper-scale magnitudes. Both
// are reported.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"memoir/internal/bench"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	Scale  bench.Scale
	Trials int
	Out    io.Writer
	// Budget bounds every benchmark execution; the zero value imposes
	// no limits.
	Budget Budget
}

// Budget bounds benchmark executions (adebench -max-steps, -max-mem,
// -timeout): a step budget, a modeled-peak-memory budget, and a
// wall-clock deadline, enforced inside both engines' dispatch loops. A
// run that exhausts its budget fails with a structured
// interp.LimitError instead of running away on an oversized scale. The
// zero value imposes no limits.
type Budget struct {
	MaxSteps uint64
	MaxBytes int64
	Timeout  time.Duration
}

// apply installs the budget on one execution's engine options and
// returns the deadline's cancel function, which the caller must invoke
// once the run finishes.
func (b Budget) apply(o *interp.Options) context.CancelFunc {
	o.MaxSteps = b.MaxSteps
	o.MaxBytes = b.MaxBytes
	if b.Timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), b.Timeout)
		o.Context = ctx
		return cancel
	}
	return func() {}
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

// CompilerConfig names one artifact-appendix compiler configuration.
type CompilerConfig struct {
	Name string
	// ADE is nil for pure-MEMOIR baselines.
	ADE *core.Options
	// Defaults for unselected collections (RQ5 swaps in Swiss).
	DefaultSet, DefaultMap collections.Impl
	// Variant selects the PTA directive variant.
	Variant string
	// PGO profiles a baseline run and feeds the execution counts into
	// the benefit heuristic (the §III-C extension).
	PGO bool
}

func adeOpts(mut func(*core.Options)) *core.Options {
	o := core.DefaultOptions()
	if mut != nil {
		mut(&o)
	}
	return &o
}

// The artifact-appendix configurations.
var (
	CfgMemoir        = CompilerConfig{Name: "memoir"}
	CfgADE           = CompilerConfig{Name: "ade", ADE: adeOpts(nil)}
	CfgMemoirAbseil  = CompilerConfig{Name: "memoir-abseil", DefaultSet: collections.ImplSwissSet, DefaultMap: collections.ImplSwissMap}
	CfgADEAbseil     = CompilerConfig{Name: "ade-abseil", ADE: adeOpts(nil), DefaultSet: collections.ImplSwissSet, DefaultMap: collections.ImplSwissMap}
	CfgNoRedundant   = CompilerConfig{Name: "ade-noredundant", ADE: adeOpts(func(o *core.Options) { o.RTE = false })}
	CfgNoPropagation = CompilerConfig{Name: "ade-nopropagation", ADE: adeOpts(func(o *core.Options) { o.Propagation = false })}
	CfgNoSharing     = CompilerConfig{Name: "ade-nosharing", ADE: adeOpts(func(o *core.Options) { o.Sharing = false; o.Propagation = false })}
	CfgSparse        = CompilerConfig{Name: "ade-sparse", ADE: adeOpts(func(o *core.Options) { o.SetImpl = collections.ImplSparseBitSet })}
	CfgPGO           = CompilerConfig{Name: "ade-pgo", ADE: adeOpts(nil), PGO: true}
)

// Measurement is the aggregated result of running one benchmark under
// one configuration.
type Measurement struct {
	Abbr, Config string

	// Median wall times (seconds).
	WallWhole, WallROI, WallInit float64

	// Modeled times (nanoseconds) per architecture, whole and ROI.
	Modeled map[interp.Arch]struct{ Whole, ROI float64 }

	// Peak modeled memory (bytes), from a dedicated sampling run.
	Peak float64

	Stats    *interp.Stats
	ROIStats *interp.Stats

	EmitSum uint64
}

// buildProgram constructs (and optionally ADE-transforms) the program
// for a configuration.
func buildProgram(s *bench.Spec, cfg CompilerConfig, sc bench.Scale) (*ir.Program, error) {
	prog := s.Build(cfg.Variant)
	if cfg.ADE != nil {
		opts := *cfg.ADE
		if cfg.PGO {
			// Profile a baseline run on the same input; the adeprofile
			// document is keyed by the pre-ADE program hash, so a profile
			// collected on one untransformed build applies to a fresh one.
			prof, err := bench.CollectSiteProfile(s, s.Build(cfg.Variant), sc)
			if err != nil {
				return nil, err
			}
			opts.SiteProfile = prof
		}
		if _, err := pipeline.Transform(prog, opts); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.Abbr, cfg.Name, err)
		}
	}
	return prog, nil
}

func interpOpts(cfg CompilerConfig, memRun bool) interp.Options {
	o := interp.DefaultOptions()
	if cfg.DefaultSet != collections.ImplNone {
		o.DefaultSet = cfg.DefaultSet
	}
	if cfg.DefaultMap != collections.ImplNone {
		o.DefaultMap = cfg.DefaultMap
	}
	if memRun {
		o.MemSampleEvery = 256
	} else {
		// Timing runs keep the live-set scan out of the loop.
		o.MemSampleEvery = 1 << 30
	}
	return o
}

// RunConfigsFor measures the given benchmarks under several
// configurations with trials interleaved round-robin (config A trial
// 1, config B trial 1, config A trial 2, ...), so heap growth, GC
// pacing and machine drift tax every configuration equally instead of
// whichever suite happens to run first.
func RunConfigsFor(specs []*bench.Spec, cfgs []CompilerConfig, c Config) ([]map[string]*Measurement, error) {
	out := make([]map[string]*Measurement, len(cfgs))
	for i := range out {
		out[i] = map[string]*Measurement{}
	}
	for _, s := range specs {
		progs := make([]*ir.Program, len(cfgs))
		for i, cfg := range cfgs {
			p, err := buildProgram(s, cfg, c.Scale)
			if err != nil {
				return nil, err
			}
			progs[i] = p
		}
		whole := make([][]float64, len(cfgs))
		roi := make([][]float64, len(cfgs))
		init := make([][]float64, len(cfgs))
		last := make([]*bench.Result, len(cfgs))
		for t := 0; t < c.trials(); t++ {
			for i, cfg := range cfgs {
				res, err := executeBudgeted(s, progs[i], interpOpts(cfg, false), c.Scale, c.Budget)
				if err != nil {
					return nil, err
				}
				whole[i] = append(whole[i], res.WallWhole.Seconds())
				roi[i] = append(roi[i], res.WallROI.Seconds())
				init[i] = append(init[i], res.WallInit.Seconds())
				last[i] = res
			}
		}
		for i, cfg := range cfgs {
			mem, err := executeBudgeted(s, progs[i], interpOpts(cfg, true), c.Scale, c.Budget)
			if err != nil {
				return nil, err
			}
			m := &Measurement{
				Abbr: s.Abbr, Config: cfg.Name,
				WallWhole: stats.Median(whole[i]), WallROI: stats.Median(roi[i]), WallInit: stats.Median(init[i]),
				Peak:  float64(mem.Peak),
				Stats: last[i].Stats, ROIStats: last[i].ROIStats,
				Modeled: map[interp.Arch]struct{ Whole, ROI float64 }{},
				EmitSum: last[i].EmitSum,
			}
			for _, a := range []interp.Arch{interp.ArchIntelX64, interp.ArchAArch64} {
				m.Modeled[a] = struct{ Whole, ROI float64 }{
					Whole: last[i].Stats.ModeledNanos(a),
					ROI:   last[i].ROIStats.ModeledNanos(a),
				}
			}
			out[i][s.Abbr] = m
		}
	}
	return out, nil
}

// executeBudgeted runs one benchmark execution on the VM under bud.
func executeBudgeted(s *bench.Spec, prog *ir.Program, o interp.Options, sc bench.Scale, bud Budget) (*bench.Result, error) {
	cancel := bud.apply(&o)
	defer cancel()
	return bench.ExecuteOn(s, prog, o, sc, bench.EngineVM)
}

// RunConfigs measures the full suite under several configurations with
// interleaved trials.
func RunConfigs(cfgs []CompilerConfig, c Config) ([]map[string]*Measurement, error) {
	return RunConfigsFor(bench.All(), cfgs, c)
}

// Run measures one benchmark under one configuration.
func Run(s *bench.Spec, cfg CompilerConfig, c Config) (*Measurement, error) {
	ms, err := RunConfigsFor([]*bench.Spec{s}, []CompilerConfig{cfg}, c)
	if err != nil {
		return nil, err
	}
	return ms[0][s.Abbr], nil
}

// RunSuite measures every benchmark under cfg.
func RunSuite(cfg CompilerConfig, c Config) (map[string]*Measurement, error) {
	ms, err := RunConfigs([]CompilerConfig{cfg}, c)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// --- formatting helpers ---

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func benchOrder(ms map[string]*Measurement) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "(generated %s)\n\n", time.Now().Format(time.RFC3339))
}
