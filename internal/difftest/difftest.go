// Package difftest is the differential-testing and regression harness
// guarding ADE's central claim: the transformation is
// semantics-preserving. One sweep, Run, takes a list of sources — the
// benchmarks in internal/bench, the enumerated program skeletons
// (enum.go), or programs from the generator family behind
// internal/core's fuzz tests — and runs each under a configuration
// matrix — ADE off (reference) vs. ADE on, crossed with
// collection-selection choices, sharing on/off and RTE on/off —
// asserting byte-identical canonical outputs. Every cell is transformed
// and lowered by internal/pipeline, the same verified stage sequence
// production uses; invariant checking, a rewrite fuel cap and injected
// faults are per-cell settings that apply whatever the source. Results
// land in a machine-readable JSON report (difftest-report.json) that
// CI uploads as an artifact.
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

// Options configures one sweep. Exactly one source selector may be
// set: Benchmarks (with Scale), Bound or IDs (skeletons), or Seed
// (generated programs); none selects the whole benchmark suite. The
// remaining fields apply to every cell whatever the source.
type Options struct {
	// Benchmarks filters the suite by abbreviation; empty means all of
	// it. Scale sizes the benchmark inputs.
	Benchmarks []string
	Scale      bench.Scale
	// Bound sweeps every skeleton up to that many statements
	// (EnumeratePrograms); IDs replays the named skeletons instead.
	Bound int
	IDs   []string
	// Seed is the first generator seed; Count consecutive seeds run
	// (at least one).
	Seed  int64
	Count int

	// Shard selects the slice of the source list this run covers. The
	// zero value means everything.
	Shard Shard
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
	// with source and -configs filters this is the manual bisection
	// workflow: rerun a diverging cell at shrinking fuel levels until
	// the divergence disappears.
	Fuel int
	// Faults names injection points (faults.ByName syntax, or "all" for
	// the whole registry). Each source then runs once per point, with a
	// fresh deterministic injector in every cell (never the
	// reference); empty means no injection.
	Faults []string
	// Verbose, when non-nil, receives one progress line per executed
	// cell.
	Verbose io.Writer
}

// column returns c as a cell runs it: core's invariant checking and/or
// a rewrite fuel cap applied to its ADE options (a copy; the matrix
// itself is never mutated).
func column(c Config, check bool, fuel int) Config {
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
	// name is the source's report key (BFS, skS:pm0.tms, seed3); it
	// also labels the source's in-harness profile.
	name  string
	build func() *ir.Program
	input func(bench.Allocator) []interp.Val
	// prefixes, when non-nil, lists smaller sources, smallest first,
	// that a failing cell is reduced to (skeletons only).
	prefixes func() []source
}

// specSource is a suite benchmark at the given scale.
func specSource(s *bench.Spec, sc bench.Scale) source {
	return source{
		name:  s.Abbr,
		build: func() *ir.Program { return s.Build("") },
		input: func(a bench.Allocator) []interp.Val { return s.Input(a, sc) },
	}
}

// seedSource is the generated program for seed on the family's
// canonical input.
func seedSource(seed int64) source {
	return source{
		name:  fmt.Sprintf("seed%d", seed),
		build: func() *ir.Program { return core.GenerateProgram(seed) },
		input: seqInput(core.FuzzInput(seed)),
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

// sources selects the source list and applies the shard. The returned
// scale names the benchmark input size ("" for skeletons and seeds).
func (o Options) sources() ([]source, string, error) {
	var set []string
	for _, sel := range []struct {
		flag string
		on   bool
	}{
		{"-bench", len(o.Benchmarks) > 0},
		{"-enum", o.Bound != 0},
		{"-enum-id", len(o.IDs) > 0},
		{"-seed", o.Seed != 0},
	} {
		if sel.on {
			set = append(set, sel.flag)
		}
	}
	if len(set) > 1 {
		return nil, "", fmt.Errorf("conflicting source selectors %s: choose one", strings.Join(set, " and "))
	}
	var all []source
	scale := ""
	switch {
	case o.Bound < 0:
		return nil, "", fmt.Errorf("enum: bound must be >= 1, got %d", o.Bound)
	case o.Bound > 0:
		for _, sk := range EnumeratePrograms(o.Bound) {
			all = append(all, sk.source())
		}
	case len(o.IDs) > 0:
		for _, id := range o.IDs {
			sk, err := ParseSkeletonID(id)
			if err != nil {
				return nil, "", err
			}
			all = append(all, sk.source())
		}
	case o.Seed != 0:
		for j := 0; j < max(o.Count, 1); j++ {
			all = append(all, seedSource(o.Seed+int64(j)))
		}
	default:
		specs := bench.All()
		if len(o.Benchmarks) > 0 {
			specs = nil
			for _, abbr := range o.Benchmarks {
				s := bench.Get(abbr)
				if s == nil {
					return nil, "", fmt.Errorf("unknown benchmark %q", abbr)
				}
				specs = append(specs, s)
			}
		}
		for _, s := range specs {
			all = append(all, specSource(s, o.Scale))
		}
		scale = o.Scale.String()
	}
	var out []source
	for _, j := range Partition(len(all), o.Shard) {
		out = append(out, all[j])
	}
	if len(out) == 0 {
		// A selection that matches nothing must not pass silently — a
		// typo'd CI filter would otherwise green-light an empty run.
		return nil, "", fmt.Errorf("empty selection: shard %s of %d sources covers nothing", o.Shard.Norm(), len(all))
	}
	return out, scale, nil
}

// Run executes the differential sweep: every selected source runs
// untransformed on the interpreter (the reference), then through every
// selected matrix column — once per injected fault point when Faults is
// set — and each cell is classified against the reference. Unfaulted
// @vm cells must also reproduce their interpreter twin's op counts. A
// failing cell is triaged where it can be: fuel bisection for a
// crashed or degraded faulted ADE cell, prefix reduction for a source
// with prefixes. A non-nil error means the harness itself failed
// (including an empty or conflicting selection); cell results are
// recorded in the report.
func Run(o Options) (*Report, error) {
	matrix := o.Matrix
	if matrix == nil {
		matrix = Matrix()
	}
	cfgs, err := selectConfigs(matrix, o.Configs)
	if err != nil {
		return nil, err
	}
	srcs, scale, err := o.sources()
	if err != nil {
		return nil, err
	}
	pts, err := faultPoints(o.Faults)
	if err != nil {
		return nil, err
	}
	rpt := &Report{Schema: Schema, Scale: scale, Shard: o.Shard.String(), Configs: ConfigNames(cfgs)}
	for _, pt := range pts {
		if pt.Name != "" {
			rpt.Faults = append(rpt.Faults, pt.Name)
		}
	}
	for _, src := range srcs {
		rpt.Sources = append(rpt.Sources, src.name)
		ref, err := reference(src)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", src.name, err)
		}
		if ref.emitCount == 0 {
			return nil, fmt.Errorf("%s: emits no output; equivalence untestable", src.name)
		}
		// Interpreter outcomes by column name, for the engine-twin
		// op-count comparison.
		twins := map[string]*outcome{}
		for _, pt := range pts {
			for _, c := range cfgs {
				c = column(c, o.Check, o.Fuel)
				e, got := runCell(src, c, pt, ref)
				kind := e.Outcome
				if e.Outcome == OutcomeOK {
					if delta := twinDelta(got, twins, c); delta != "" {
						e.Outcome, e.Detail, kind = OutcomeDiverged, delta, "op-counts"
					}
				}
				if e.failed() {
					if e.Outcome == FaultCrash || e.Outcome == FaultDegraded {
						e.FirstBadRewrite = bisectFault(src, c, pt, ref)
					}
					rpt.Divergences = append(rpt.Divergences, Divergence{
						Source: src.name, Reduced: reduce(src, c, pt), Config: c.Name,
						Kind: kind, Fault: pt.Name, Detail: e.Detail, FirstBadRewrite: e.FirstBadRewrite,
						WantRet: ref.ret, GotRet: e.Ret,
						WantEmitSum: ref.emitSum, GotEmitSum: e.EmitSum,
						WantEmitCount: ref.emitCount, GotEmitCount: e.EmitCount,
					})
				}
				rpt.add(e)
				if o.Verbose != nil {
					fmt.Fprintf(o.Verbose, "%-28s %-22s %-20s %s %s\n", src.name, c.Name, pt.Name, e.Outcome, e.Detail)
				}
			}
		}
	}
	return rpt, nil
}

// twinDelta implements the engine axis' count-parity assertion:
// interpreter outcomes are remembered by column name, and a "@vm"
// column with an interpreter twin in this run must reproduce the
// twin's full deterministic measurement surface exactly. It returns
// the drift, "" for none.
func twinDelta(got *outcome, twins map[string]*outcome, c Config) string {
	if c.Engine == bench.EngineInterp {
		twins[c.Name] = got
		return ""
	}
	want, ok := twins[BaseName(c.Name)]
	if !ok {
		return "" // twin filtered out of this run
	}
	return statsDelta(want.stats, got.stats)
}

// runCell builds and runs src under column c — with a fresh injector
// for pt when it names a fault — and classifies the cell against the
// reference. A cell without a fault is ok, diverged or error. A faulted
// cell is rolled-back (the fault fired and was fully contained),
// crash (the run stopped with a structured error instead of a process
// panic), degraded (wrong output, no crash — the miscompile shape),
// not-triggered, or unexpected (a panic escaped every recovery layer,
// or the sandbox returned an error it should have absorbed).
func runCell(src source, c Config, pt faults.Point, ref *outcome) (e Entry, got *outcome) {
	e = Entry{Source: src.name, Config: c.Name, Engine: c.Engine.String(), Fault: pt.Name}
	faulted := pt.Name != ""
	pick := func(plain, withFault string) string {
		if faulted {
			return withFault
		}
		return plain
	}
	iopts := interpOpts(c)
	var inj *faults.Injector
	if faulted {
		defer func() {
			if r := recover(); r != nil {
				e.Outcome, e.Detail, got = FaultUnexpected, fmt.Sprintf("escaped panic: %v", r), nil
			}
		}()
		if pt.Kind == faults.PassPanic && c.ADE == nil {
			e.Outcome, e.Detail = FaultNotTriggered, "baseline column runs no compiler pipeline"
			return e, nil
		}
		c, inj = inject(c, &iopts, pt)
	}
	prog, rep, err := build(src, c)
	if err != nil {
		// Every faulted ADE column runs sandboxed, so a compile error
		// there means the sandbox failed to absorb the fault.
		e.Outcome, e.Detail = pick(OutcomeError, FaultUnexpected), err.Error()
		return e, nil
	}
	if got, err = run(src, prog, iopts, c.Engine); err != nil {
		e.Outcome, e.Detail = pick(OutcomeError, FaultCrash), err.Error()
		return e, nil
	}
	e.Ret, e.EmitSum, e.EmitCount = got.ret, got.emitSum, got.emitCount
	e.Steps, e.CollOps = got.stats.Steps, got.stats.CollOps()
	e.Sparse, e.Dense = got.stats.Sparse, got.stats.Dense
	enum := got.stats.Counts[interp.ImplEnum]
	e.Enc, e.Dec, e.Add = enum[interp.OKEnc], enum[interp.OKDec], enum[interp.OKAdd]
	if rep != nil {
		e.EnumClasses = len(rep.Classes)
	}
	switch {
	case !equalOutput(ref, got):
		e.Outcome = pick(OutcomeDiverged, FaultDegraded)
	case !faulted:
		e.Outcome = OutcomeOK
	case rep != nil && len(rep.Degraded) > 0:
		e.Outcome, e.Detail = FaultRolledBack, rep.Degraded[0]
	case inj.Fired():
		e.Outcome, e.Detail = FaultRolledBack, "fault fired; output unaffected"
	default:
		e.Outcome = FaultNotTriggered
	}
	return e, got
}

// reduce shrinks a failing cell whose source has prefixes: it replays
// them, smallest first, under the same column and fault, and returns
// the name of the first whose cell still fails — src's own name when
// none does. It returns "" for a source without prefixes.
func reduce(src source, c Config, pt faults.Point) string {
	if src.prefixes == nil {
		return ""
	}
	for _, pre := range src.prefixes() {
		ref, err := reference(pre)
		if err != nil {
			continue
		}
		if e, _ := runCell(pre, c, pt, ref); e.failed() {
			return pre.name
		}
	}
	return src.name
}
