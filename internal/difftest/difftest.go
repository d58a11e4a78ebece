// Package difftest is the differential-testing and regression harness
// guarding ADE's central claim: the transformation is
// semantics-preserving. It runs every benchmark in internal/bench
// under a configuration matrix — ADE off (reference) vs. ADE on,
// crossed with collection-selection choices, sharing on/off and RTE
// on/off — and asserts byte-identical canonical outputs. Every cell is
// transformed and lowered by internal/pipeline, the same verified
// stage sequence production uses. A -seed-driven
// random-program mode diffs the generator family behind internal/core's
// fuzz tests. Results land in a machine-readable JSON report
// (difftest-report.json) that CI uploads as an artifact.
//
// The matrix also carries an execution-engine axis: every column runs
// once on the tree-walking interpreter and once on the bytecode
// register VM (the "@vm" twin). A VM cell's output is compared against
// the interpreter reference byte for byte, and additionally its full
// deterministic measurement surface (steps, per-implementation op
// counts, sparse/dense classification, translation calls) must equal
// its interpreter twin's exactly — any drift is reported as an
// "op-counts" divergence.
//
// The work list shards deterministically (-shard i/n) so CI can run a
// bounded smoke slice on every push and a deep sweep nightly.
package difftest

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
)

// Config is one column of the differential matrix.
type Config struct {
	// Name is the stable identifier used in reports and -configs
	// filters. Engine-twin columns carry an "@vm" suffix.
	Name string
	// Engine selects the execution engine for this column. The zero
	// value is the interpreter.
	Engine bench.Engine
	// ADE is nil for pure-baseline columns (no transformation).
	ADE *core.Options
	// DefaultSet and DefaultMap choose the engine's implementation for
	// unselected collections; ImplNone keeps the baseline Hash{Set,Map}.
	DefaultSet, DefaultMap collections.Impl
	// Mutate, when non-nil, is applied to the program after the ADE
	// pass. It exists for fault-injection tests that prove the differ
	// detects divergences; production matrices leave it nil.
	Mutate func(*ir.Program)
	// PGO profiles an untransformed reference run of the same program
	// and input in-harness and feeds the adeprofile document into the
	// ADE pass (core.Options.SiteProfile), so the matrix proves the
	// profile-guided decisions are semantics-preserving too.
	PGO bool
}

// EngineSuffix marks a matrix column that runs on the bytecode VM; a
// column named "X@vm" is the engine twin of column "X" and must
// reproduce its op counts exactly.
const EngineSuffix = "@vm"

// BaseName strips the engine-twin suffix from a column name.
func BaseName(name string) string { return strings.TrimSuffix(name, EngineSuffix) }

// Matrix returns the standard differential matrix: the hash baseline
// (the reference semantics), the alternate baseline implementation
// defaults, and every ADE configuration from core.OptionsMatrix — each
// immediately followed by its bytecode-VM engine twin.
func Matrix() []Config {
	base := []Config{
		{Name: "baseline-hash"},
		{Name: "baseline-swiss", DefaultSet: collections.ImplSwissSet, DefaultMap: collections.ImplSwissMap},
		{Name: "baseline-flat", DefaultSet: collections.ImplFlatSet},
	}
	for _, no := range core.OptionsMatrix() {
		opts := no.Opts
		base = append(base, Config{Name: no.Name, ADE: &opts})
	}
	pgoOpts := core.DefaultOptions()
	base = append(base, Config{Name: "ade-pgo", ADE: &pgoOpts, PGO: true})
	out := make([]Config, 0, 2*len(base))
	for _, c := range base {
		out = append(out, c)
		twin := c
		twin.Name += EngineSuffix
		twin.Engine = bench.EngineVM
		out = append(out, twin)
	}
	return out
}

// ConfigNames lists the matrix column names in order.
func ConfigNames(cfgs []Config) []string {
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name
	}
	return names
}

// RunOptions configures one harness run.
type RunOptions struct {
	Scale bench.Scale
	// Shard selects the slice of the benchmark work list this run
	// covers. The zero value means everything.
	Shard Shard
	// Benchmarks filters by abbreviation; empty means the whole suite.
	Benchmarks []string
	// Configs filters matrix columns by name; empty means all. The
	// reference is always executed regardless of the filter.
	Configs []string
	// Matrix overrides the configuration matrix (tests); nil means
	// Matrix().
	Matrix []Config
	// Check enables core's mid-pipeline invariant checking on every
	// ADE column (adec -check). Checks never change decisions, so a
	// -check sweep exercises the same matrix with invariants asserted.
	Check bool
	// Fuel, when non-zero, caps every ADE column's rewrite budget
	// (core.Options.Fuel convention: negative permits none). Combined
	// with -bench/-configs filters this is the manual bisection
	// workflow: rerun a diverging cell at shrinking fuel levels until
	// the divergence disappears.
	Fuel int
	// Verbose, when non-nil, receives one progress line per executed
	// cell.
	Verbose io.Writer
}

// withCheck returns c with core's invariant checking and/or a rewrite
// fuel cap applied to its ADE options (a copy; the matrix itself is
// never mutated).
func withCheck(c Config, check bool, fuel int) Config {
	if (!check && fuel == 0) || c.ADE == nil {
		return c
	}
	a := *c.ADE
	if check {
		a.Check = true
	}
	if fuel != 0 {
		a.Fuel = fuel
	}
	c.ADE = &a
	return c
}

// outcome is one execution's canonical observable output plus the
// stats the report records.
type outcome struct {
	ret       uint64
	emitSum   uint64
	emitCount uint64
	canon     []uint64 // emitted values, canonicalized (sorted bit patterns)
	stats     *interp.Stats
}

// interpOpts builds the engine options for a matrix column.
func interpOpts(c Config) interp.Options {
	o := interp.DefaultOptions()
	if c.DefaultSet != collections.ImplNone {
		o.DefaultSet = c.DefaultSet
	}
	if c.DefaultMap != collections.ImplNone {
		o.DefaultMap = c.DefaultMap
	}
	// The differ compares outputs, not the memory model; keep the
	// live-set scan out of the loop.
	o.MemSampleEvery = 1 << 30
	o.RecordOutput = true
	return o
}

// source is one program the matrix diffs — a benchmark, a skeleton or
// a generated seed. It supplies only how to build the untransformed
// program and how to build @main's arguments on the engine that runs
// it; every cell then goes through the same build and run.
type source struct {
	// name labels the source's in-harness profile.
	name  string
	build func() *ir.Program
	input func(bench.Allocator) []interp.Val
}

// specSource is a suite benchmark at the given scale.
func specSource(s *bench.Spec, sc bench.Scale) source {
	return source{
		name:  s.Abbr,
		build: func() *ir.Program { return s.Build("") },
		input: func(a bench.Allocator) []interp.Val { return s.Input(a, sc) },
	}
}

// seqInput passes keys to @main as one Seq<u64>.
func seqInput(keys []uint64) func(bench.Allocator) []interp.Val {
	return func(a bench.Allocator) []interp.Val {
		c := a.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
		for _, k := range keys {
			c.Append(interp.IntV(k))
		}
		return []interp.Val{interp.CollV(c)}
	}
}

// run executes prog on src's input on the chosen engine and
// canonicalizes the output. An injected fault that fires while the
// input is being built — before the engine's Run-boundary recovery
// exists — surfaces as an error.
func run(src source, prog *ir.Program, iopts interp.Options, eng bench.Engine) (o *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*faults.InjectedFault); ok {
				o, err = nil, fmt.Errorf("injected fault during input construction: %s", f.P.Name)
				return
			}
			panic(r)
		}
	}()
	m, err := bench.NewMachine(prog, iopts, eng)
	if err != nil {
		return nil, err
	}
	ret, err := m.Run("main", src.input(m)...)
	if err != nil {
		return nil, err
	}
	out := m.Output
	canon := make([]uint64, len(out))
	for i, v := range out {
		canon[i] = v.Bits()
	}
	sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
	st := m.Stats
	return &outcome{
		ret: ret.I, emitSum: st.EmitSum, emitCount: st.EmitCount,
		canon: canon, stats: st,
	}, nil
}

// reference runs src untransformed on the baseline hash
// implementations on the interpreter: the semantics every cell must
// reproduce.
func reference(src source) (*outcome, error) {
	return run(src, src.build(), interpOpts(Config{}), bench.EngineInterp)
}

// profile records the site profile of one untransformed VM run of src
// through bench.CollectSiteProfile, the profile a PGO cell compiles
// under. It is keyed by the pre-ADE hash, so it matches every fresh
// build of src.
func profile(src source) (*adeprofile.Profile, error) {
	s := &bench.Spec{
		Abbr:  src.name,
		Input: func(a bench.Allocator, _ bench.Scale) []interp.Val { return src.input(a) },
	}
	return bench.CollectSiteProfile(s, src.build(), 0)
}

// build constructs the program for one matrix cell. ADE columns go
// through the compile pipeline, which verifies the transformed
// program; PGO columns first profile src and compile under that
// profile. Mutate runs last and is verified here, since no pipeline
// stage produced its output.
func build(src source, c Config) (*ir.Program, *core.Report, error) {
	prog := src.build()
	var rep *core.Report
	if c.ADE != nil {
		a := *c.ADE
		if c.PGO {
			prof, err := profile(src)
			if err != nil {
				return nil, nil, fmt.Errorf("pgo profiling run: %w", err)
			}
			a.SiteProfile = prof
		}
		var err error
		if rep, err = pipeline.Transform(prog, a); err != nil {
			return nil, rep, err
		}
	}
	if c.Mutate != nil {
		c.Mutate(prog)
		if err := ir.Verify(prog); err != nil {
			return nil, rep, fmt.Errorf("post-mutate verify: %w", err)
		}
	}
	return prog, rep, nil
}

// diffCell builds and runs one cell and compares its output with the
// reference. A non-nil error is the cell's error entry; a non-nil
// divergence carries only the config and the two outputs.
func diffCell(src source, c Config, ref *outcome, iopts interp.Options) (*outcome, *core.Report, *Divergence, error) {
	prog, rep, err := build(src, c)
	if err != nil {
		return nil, rep, nil, err
	}
	got, err := run(src, prog, iopts, c.Engine)
	if err != nil {
		return nil, rep, nil, err
	}
	if equalOutput(ref, got) {
		return got, rep, nil, nil
	}
	return got, rep, &Divergence{
		Config:  c.Name,
		WantRet: ref.ret, GotRet: got.ret,
		WantEmitSum: ref.emitSum, GotEmitSum: got.emitSum,
		WantEmitCount: ref.emitCount, GotEmitCount: got.emitCount,
	}, nil
}

// statsDelta describes how two deterministic measurement surfaces
// differ; "" means exactly equal. Engine twins must never differ.
func statsDelta(want, got *interp.Stats) string {
	if *want == *got {
		return ""
	}
	var parts []string
	scalar := func(name string, w, g uint64) {
		if w != g {
			parts = append(parts, fmt.Sprintf("%s %d vs %d", name, g, w))
		}
	}
	scalar("steps", want.Steps, got.Steps)
	scalar("sparse", want.Sparse, got.Sparse)
	scalar("dense", want.Dense, got.Dense)
	for impl := 0; impl < interp.NImpls; impl++ {
		for k := range want.Counts[impl] {
			if want.Counts[impl][k] != got.Counts[impl][k] {
				parts = append(parts, fmt.Sprintf("counts[%d][%v] %d vs %d",
					impl, interp.OpKind(k), got.Counts[impl][k], want.Counts[impl][k]))
			}
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "memory model drift")
	}
	if len(parts) > 6 {
		parts = append(parts[:6], "…")
	}
	return strings.Join(parts, "; ")
}

// equalOutput reports whether two outcomes are byte-identical under
// the canonical ordering.
func equalOutput(a, b *outcome) bool {
	if a.ret != b.ret || a.emitSum != b.emitSum || a.emitCount != b.emitCount {
		return false
	}
	if len(a.canon) != len(b.canon) {
		return false
	}
	for i := range a.canon {
		if a.canon[i] != b.canon[i] {
			return false
		}
	}
	return true
}

// entryFor fills a report entry from an outcome.
func entryFor(c Config, o *outcome, rep *core.Report) Entry {
	e := Entry{
		Config:    c.Name,
		Engine:    c.Engine.String(),
		Ret:       o.ret,
		EmitSum:   o.emitSum,
		EmitCount: o.emitCount,
		Steps:     o.stats.Steps,
		CollOps:   o.stats.CollOps(),
		Sparse:    o.stats.Sparse,
		Dense:     o.stats.Dense,
		Enc:       o.stats.Counts[interp.ImplEnum][interp.OKEnc],
		Dec:       o.stats.Counts[interp.ImplEnum][interp.OKDec],
		Add:       o.stats.Counts[interp.ImplEnum][interp.OKAdd],
	}
	if rep != nil {
		e.EnumClasses = len(rep.Classes)
	}
	return e
}

// selectConfigs applies the -configs filter.
func selectConfigs(matrix []Config, names []string) ([]Config, error) {
	if len(names) == 0 {
		return matrix, nil
	}
	byName := map[string]Config{}
	for _, c := range matrix {
		byName[c.Name] = c
	}
	var out []Config
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown config %q (have %v)", n, ConfigNames(matrix))
		}
		out = append(out, c)
	}
	return out, nil
}

// selectBenchmarks applies the -bench filter and the shard.
func selectBenchmarks(o RunOptions) ([]*bench.Spec, error) {
	var specs []*bench.Spec
	if len(o.Benchmarks) == 0 {
		specs = bench.All()
	} else {
		for _, abbr := range o.Benchmarks {
			s := bench.Get(abbr)
			if s == nil {
				return nil, fmt.Errorf("unknown benchmark %q", abbr)
			}
			specs = append(specs, s)
		}
	}
	var out []*bench.Spec
	for _, i := range Partition(len(specs), o.Shard) {
		out = append(out, specs[i])
	}
	if len(out) == 0 {
		// A selection that matches nothing must not pass silently — a
		// typo'd CI filter would otherwise green-light an empty run.
		return nil, fmt.Errorf("empty selection: shard %s of %d benchmarks covers nothing", o.Shard.Norm(), len(specs))
	}
	return out, nil
}

// Run executes the benchmark differential matrix and returns the
// report. A non-nil error means the harness itself failed; divergences
// and per-cell execution errors are recorded in the report instead.
func Run(o RunOptions) (*Report, error) {
	matrix := o.Matrix
	if matrix == nil {
		matrix = Matrix()
	}
	cfgs, err := selectConfigs(matrix, o.Configs)
	if err != nil {
		return nil, err
	}
	specs, err := selectBenchmarks(o)
	if err != nil {
		return nil, err
	}
	rpt := NewReport(o.Scale, o.Shard, ConfigNames(cfgs))
	for _, s := range specs {
		br := BenchReport{Abbr: s.Abbr}
		// The reference semantics: untransformed program on the
		// baseline hash implementations, on the interpreter.
		ref, err := reference(specSource(s, o.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", s.Abbr, err)
		}
		if ref.emitCount == 0 {
			return nil, fmt.Errorf("%s: benchmark emits no output; equivalence untestable", s.Abbr)
		}
		// Interpreter outcomes by column name, for the engine-twin
		// op-count comparison.
		twins := map[string]*outcome{}
		for _, c := range cfgs {
			e, got, div := runCell(s, withCheck(c, o.Check, o.Fuel), ref, o.Scale)
			if div == nil {
				if d := twinDivergence(got, twins, c, s.Abbr, 0); d != nil {
					e.Diverged = true
					div = d
				}
			}
			br.Entries = append(br.Entries, e)
			if div != nil {
				rpt.Divergences = append(rpt.Divergences, *div)
			}
			if o.Verbose != nil {
				status := "ok"
				if e.Diverged {
					status = "DIVERGED"
				} else if e.Error != "" {
					status = "error: " + e.Error
				}
				fmt.Fprintf(o.Verbose, "%-5s %-22s %s\n", s.Abbr, c.Name, status)
			}
		}
		rpt.Benchmarks = append(rpt.Benchmarks, br)
	}
	rpt.Finish()
	return rpt, nil
}

// twinDivergence implements the engine axis' count-parity assertion:
// interpreter outcomes are remembered by column name, and a "@vm"
// column with an interpreter twin in this run must reproduce the
// twin's full deterministic measurement surface exactly. A non-nil
// return is the divergence; the caller marks the cell.
func twinDivergence(got *outcome, twins map[string]*outcome, c Config, abbr string, seed int64) *Divergence {
	if got == nil {
		return nil
	}
	if c.Engine == bench.EngineInterp {
		twins[c.Name] = got
		return nil
	}
	want, ok := twins[BaseName(c.Name)]
	if !ok {
		return nil // twin filtered out of this run
	}
	delta := statsDelta(want.stats, got.stats)
	if delta == "" {
		return nil
	}
	return &Divergence{
		Bench: abbr, Seed: seed, Config: c.Name,
		Kind: "op-counts", Detail: delta,
		WantRet: want.ret, GotRet: got.ret,
		WantEmitSum: want.emitSum, GotEmitSum: got.emitSum,
		WantEmitCount: want.emitCount, GotEmitCount: got.emitCount,
	}
}

// runCell runs one (benchmark, config) cell against the reference.
func runCell(s *bench.Spec, c Config, ref *outcome, sc bench.Scale) (Entry, *outcome, *Divergence) {
	got, rep, div, err := diffCell(specSource(s, sc), c, ref, interpOpts(c))
	if err != nil {
		return Entry{Config: c.Name, Engine: c.Engine.String(), Error: err.Error()}, nil, nil
	}
	e := entryFor(c, got, rep)
	if div != nil {
		e.Diverged = true
		div.Bench = s.Abbr
	}
	return e, got, div
}
