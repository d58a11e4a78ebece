package vm_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/telemetry"
	"memoir/internal/vm"
)

// parityConfig is one engine-diff column: how to transform the program
// and which implementation defaults to run it under.
type parityConfig struct {
	name    string
	ade     *core.Options
	defSet  collections.Impl
	defMap  collections.Impl
	memEach int // MemSampleEvery; 0 = interpreter default (512)
	// Optional execution budgets (0 = unlimited). Exhaustion is fine —
	// assertParity then requires both engines to return the identical
	// structured error — so fuzz harnesses can cap runaway programs.
	maxSteps uint64
	maxBytes int64
}

func parityConfigs() []parityConfig {
	ade := func(name string) *core.Options {
		for _, no := range core.OptionsMatrix() {
			if no.Name == name {
				o := no.Opts
				return &o
			}
		}
		panic("unknown ade config " + name)
	}
	return []parityConfig{
		{name: "baseline-hash"},
		{name: "baseline-swiss", defSet: collections.ImplSwissSet, defMap: collections.ImplSwissMap},
		{name: "baseline-flat", defSet: collections.ImplFlatSet},
		{name: "ade", ade: ade("ade")},
		{name: "ade-sparse", ade: ade("ade-sparse")},
		{name: "ade-force", ade: ade("ade-force")},
	}
}

func (c parityConfig) opts() interp.Options {
	o := interp.DefaultOptions()
	if c.defSet != collections.ImplNone {
		o.DefaultSet = c.defSet
	}
	if c.defMap != collections.ImplNone {
		o.DefaultMap = c.defMap
	}
	if c.memEach != 0 {
		o.MemSampleEvery = c.memEach
	}
	o.MaxSteps = c.maxSteps
	o.MaxBytes = c.maxBytes
	o.RecordOutput = true
	return o
}

// runOn builds a fresh program via build, transforms it per cfg, and
// executes it on the requested engine with input from inputFor.
// Telemetry is always on so parity covers the per-site recorder too.
func runOn(t *testing.T, eng bench.Engine, build func() *ir.Program,
	inputFor func(bench.Allocator) []interp.Val, cfg parityConfig,
) (interp.Val, []interp.Val, *interp.Stats, *telemetry.Telemetry, error) {
	t.Helper()
	prog := build()
	if cfg.ade != nil {
		if _, err := core.Apply(prog, *cfg.ade); err != nil {
			t.Fatalf("%s: ade: %v", cfg.name, err)
		}
	}
	opts := cfg.opts()
	opts.Telemetry = telemetry.NewRecorder()
	m, err := bench.NewMachine(prog, opts, eng)
	if err != nil {
		t.Fatalf("%s: new %v machine: %v", cfg.name, eng, err)
	}
	args := inputFor(m)
	ret, runErr := m.Run("main", args...)
	m.FinalizeMem()
	return ret, m.Output, m.Stats, opts.Telemetry.Result(), runErr
}

// assertParity runs the program on both engines and requires the full
// measurement surface to be identical: return value, the emitted
// output in order, every (implementation, op-kind) count, sparse/dense
// classification, step count, and the sampled memory model.
func assertParity(t *testing.T, build func() *ir.Program,
	inputFor func(bench.Allocator) []interp.Val, cfg parityConfig,
) {
	t.Helper()
	iRet, iOut, iStats, iTele, iErr := runOn(t, bench.EngineInterp, build, inputFor, cfg)
	vRet, vOut, vStats, vTele, vErr := runOn(t, bench.EngineVM, build, inputFor, cfg)
	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("%s: error divergence: interp=%v vm=%v", cfg.name, iErr, vErr)
	}
	if iErr != nil {
		if iErr.Error() != vErr.Error() {
			t.Fatalf("%s: error message divergence:\n  interp: %v\n  vm:     %v", cfg.name, iErr, vErr)
		}
		return
	}
	if iRet.I != vRet.I || iRet.K != vRet.K {
		t.Errorf("%s: ret divergence: interp=%v vm=%v", cfg.name, iRet, vRet)
	}
	if len(iOut) != len(vOut) {
		t.Fatalf("%s: output length divergence: interp=%d vm=%d", cfg.name, len(iOut), len(vOut))
	}
	for i := range iOut {
		if iOut[i].Bits() != vOut[i].Bits() {
			t.Fatalf("%s: output[%d] divergence: interp=%v vm=%v", cfg.name, i, iOut[i], vOut[i])
		}
	}
	if *iStats != *vStats {
		t.Errorf("%s: stats divergence:\n  interp: steps=%d sparse=%d dense=%d peak=%d cur=%d emit=%d/%d\n  vm:     steps=%d sparse=%d dense=%d peak=%d cur=%d emit=%d/%d",
			cfg.name,
			iStats.Steps, iStats.Sparse, iStats.Dense, iStats.PeakBytes, iStats.CurBytes, iStats.EmitCount, iStats.EmitSum,
			vStats.Steps, vStats.Sparse, vStats.Dense, vStats.PeakBytes, vStats.CurBytes, vStats.EmitCount, vStats.EmitSum)
		for impl := 0; impl < interp.NImpls; impl++ {
			for k := range iStats.Counts[impl] {
				if iStats.Counts[impl][k] != vStats.Counts[impl][k] {
					t.Errorf("%s: Counts[%d][%s]: interp=%d vm=%d",
						cfg.name, impl, interp.OpKind(k), iStats.Counts[impl][k], vStats.Counts[impl][k])
				}
			}
		}
	}
	if !reflect.DeepEqual(iTele, vTele) {
		ib, vb := new(strings.Builder), new(strings.Builder)
		iTele.WriteText(ib)
		vTele.WriteText(vb)
		t.Errorf("%s: telemetry divergence:\n--- interp ---\n%s--- vm ---\n%s", cfg.name, ib, vb)
	}
	assertProfileParity(t, cfg.name, ir.ProgramHash(build()), iTele, vTele)
}

// assertProfileParity pins the durable half of engine determinism: the
// two engines' telemetry serialized through adeprofile must be
// byte-identical — a profile collected on either engine guides a
// compile to the same decisions.
func assertProfileParity(t *testing.T, name, hash string, iTele, vTele *telemetry.Telemetry) {
	t.Helper()
	var ib, vb bytes.Buffer
	if err := adeprofile.FromTelemetry(hash, name, iTele).Write(&ib); err != nil {
		t.Fatalf("%s: interp profile: %v", name, err)
	}
	if err := adeprofile.FromTelemetry(hash, name, vTele).Write(&vb); err != nil {
		t.Fatalf("%s: vm profile: %v", name, err)
	}
	if !bytes.Equal(ib.Bytes(), vb.Bytes()) {
		t.Errorf("%s: adeprofile serialization divergence:\n--- interp ---\n%s--- vm ---\n%s",
			name, ib.String(), vb.String())
	}
}

// TestEngineParitySuite diffs the two engines over the whole benchmark
// suite crossed with baseline and ADE configurations.
func TestEngineParitySuite(t *testing.T) {
	for _, s := range bench.All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			for _, cfg := range parityConfigs() {
				assertParity(t,
					func() *ir.Program { return s.Build("") },
					func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
					cfg)
			}
		})
	}
}

// TestEngineParityColdMap extends the engine diff to the checked-in
// profile-guided workload: on testdata/coldmap.mir, with the cold
// branch off and on, both engines must agree on every measurement and
// record byte-identical adeprofile documents.
func TestEngineParityColdMap(t *testing.T) {
	src, err := os.ReadFile("../../testdata/coldmap.mir")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *ir.Program {
		p, err := parser.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, verbose := range []uint64{0, 1} {
		inputFor := func(bench.Allocator) []interp.Val { return []interp.Val{interp.IntV(verbose)} }
		for _, cfg := range parityConfigs() {
			cfg.name = fmt.Sprintf("coldmap-verbose%d-%s", verbose, cfg.name)
			assertParity(t, build, inputFor, cfg)
		}
	}
}

// stringsSrc builds a 600-word Seq<str> from an 8-entry word table,
// counts the words in a Map<str,u64> and collects the distinct words in
// a Set<str>: every string lives in the value's ref slot, and every
// table hashes, compares and orders strings.
const stringsSrc = `fn u64 @main(): exported
  %t0 := new Seq<str>()
  %t1 := insert(%t0, end, "alpha")
  %t2 := insert(%t1, end, "beta")
  %t3 := insert(%t2, end, "gamma")
  %t4 := insert(%t3, end, "delta")
  %t5 := insert(%t4, end, "")
  %t6 := insert(%t5, end, "alphabet")
  %t7 := insert(%t6, end, "Beta")
  %t8 := insert(%t7, end, "delta ")
  %words := new Seq<str>()
  do:
    %i := phi(0, %i1)
    %w0 := phi(%words, %w1)
    %h := mul(%i, 2654435761)
    %j := rem(%h, 8)
    %w := read(%t8, %j)
    %w1 := insert(%w0, end, %w)
    %i1 := add(%i, 1)
    %more := lt(%i1, 600)
  while %more
  %wF := phi(%w0)
  %hist := new Map<str,u64>()
  for [%k, %v] in %wF:
    %hist0 := phi(%hist, %hist3)
    %c := has(%hist0, %v)
    if %c:
      %f := read(%hist0, %v)
    else:
      %hist1 := insert(%hist0, %v)
    %f0 := phi(%f, 0)
    %hist2 := phi(%hist0, %hist1)
    %f1 := add(%f0, 1)
    %hist3 := write(%hist2, %v, %f1)
  %histF := phi(%hist0)
  %seen := new Set<str>()
  for [%w2, %n] in %histF:
    %s0 := phi(%seen, %s1)
    %s1 := insert(%s0, %w2)
    emit(%w2)
    emit(%n)
  %sF := phi(%s0)
  for [%w3, %u] in %sF:
    emit(%w3)
  %z := size(%sF)
  ret %z
`

// TestEngineParityStrings diffs the engines on a string-keyed Map and
// Set under every parity configuration: return value, emitted strings
// and counts, op counts and the memory model must be identical.
func TestEngineParityStrings(t *testing.T) {
	build := func() *ir.Program {
		p, err := parser.Parse(stringsSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	noInput := func(bench.Allocator) []interp.Val { return nil }
	for _, cfg := range parityConfigs() {
		cfg.name = "strings-" + cfg.name
		assertParity(t, build, noInput, cfg)
	}
	ret, out, _, _, err := runOn(t, bench.EngineVM, build, noInput, parityConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if ret.I != 8 || len(out) != 24 {
		t.Fatalf("ret=%v, %d outputs; want 8 distinct words, 24 outputs", ret, len(out))
	}
}

// floatsSrc keeps f64 elements in every unboxed storage: a Seq<f64>, a
// Map<u64,f64> (a word-keyed HashMap by default, a BitMap once ADE
// enumerates its keys) and a Set<f64> holding both signed zeros, which
// EqVal holds equal. It then takes the boxed path with a
// Map<u64,Seq<u64>> and a Map<u64,str>.
const floatsSrc = `fn u64 @main(): exported
  %xs := new Seq<f64>()
  %keys := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%xs, %s1)
    %q0 := phi(%keys, %q1)
    %f := cast<f64>(%i)
    %g := mul(%f, 0.25)
    %s1 := insert(%s0, end, %g)
    %h := mul(%i, 2654435761)
    %r := rem(%h, 97)
    %k := mul(%r, 982451653)
    %q1 := insert(%q0, end, %k)
    %i1 := add(%i, 1)
    %more := lt(%i1, 300)
  while %more
  %sF := phi(%s0)
  %qF := phi(%q0)

  roi

  %m := new Map<u64,f64>()
  for [%j, %key] in %qF:
    %m0 := phi(%m, %m3)
    %x := read(%sF, %j)
    %c := has(%m0, %key)
    if %c:
      %old := read(%m0, %key)
    else:
      %m1 := insert(%m0, %key)
    %old0 := phi(%old, 0.0)
    %m2 := phi(%m0, %m1)
    %new := add(%old0, %x)
    %m3 := write(%m2, %key, %new)
  %mF := phi(%m0)
  for [%k2, %v2] in %mF:
    %got := read(%mF, %k2)
    %sum := add(%got, %v2)
    emit(%sum)

  %zs := new Set<f64>()
  for [%j3, %x3] in %sF:
    %z0 := phi(%zs, %z2)
    %neg := mul(%x3, -1.0)
    %z1 := insert(%z0, %x3)
    %z2 := insert(%z1, %neg)
  %zF := phi(%z0)
  for [%z, %u] in %zF:
    emit(%z)
  %negzero := mul(0.0, -1.0)
  %hz := has(%zF, %negzero)
  emit(%hz)
  %zn := size(%zF)
  emit(%zn)

  %adj := new Map<u64,Seq<u64>>()
  %names := new Map<u64,str>()
  for [%j4, %key4] in %qF:
    %a0 := phi(%adj, %a3)
    %b0 := phi(%names, %b3)
    %c4 := has(%a0, %key4)
    if %c4:
    else:
      %a1 := insert(%a0, %key4)
      %b1 := insert(%b0, %key4)
      %b2 := write(%b1, %key4, "first")
    %a2 := phi(%a0, %a1)
    %b3 := phi(%b0, %b2)
    %a3 := insert(%a2[%key4], end, %j4)
  %adjF := phi(%a0)
  %namesF := phi(%b0)
  for [%k5, %l5] in %adjF:
    %len := size(%l5)
    %last := sub(%len, 1)
    %e := read(%l5, %last)
    %nm := read(%namesF, %k5)
    emit(%e)
    emit(%nm)
  %n := size(%mF)
  ret %n
`

// TestEngineParityFloats diffs the engines on floatsSrc under every
// parity configuration, and requires the return value and the emit
// count and checksum to be the same in all of them: with ADE on or off
// and whichever set implementation holds the zeros.
func TestEngineParityFloats(t *testing.T) {
	build := func() *ir.Program {
		p, err := parser.Parse(floatsSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	noInput := func(bench.Allocator) []interp.Val { return nil }
	var want *interp.Stats
	for _, cfg := range parityConfigs() {
		cfg.name = "floats-" + cfg.name
		assertParity(t, build, noInput, cfg)
		ret, _, st, _, err := runOn(t, bench.EngineVM, build, noInput, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if ret.I != 97 || st.EmitCount != 892 {
			t.Errorf("%s: ret %v, %d emits; want 97 keys, 892 emits", cfg.name, ret, st.EmitCount)
		}
		if want == nil {
			want = st
		} else if st.EmitSum != want.EmitSum {
			t.Errorf("%s: emit checksum %x, baseline %x", cfg.name, st.EmitSum, want.EmitSum)
		}
		if bm := st.Counts[collections.ImplBitMap][interp.OKWrite]; (cfg.ade != nil) != (bm > 0) {
			t.Errorf("%s: %d BitMap writes; want some exactly when ADE runs", cfg.name, bm)
		}
	}
}

// TestEngineParityMemSampleEveryGrow stresses the growth-sampled
// memory model: with MemSampleEvery=1 every growth event samples, so
// any divergence in the engines' growth-event sequences shows up as a
// PeakBytes mismatch.
func TestEngineParityMemSampleEveryGrow(t *testing.T) {
	for _, abbr := range []string{"BFS", "PTA", "FIM"} {
		s := bench.Get(abbr)
		if s == nil {
			t.Fatalf("missing benchmark %s", abbr)
		}
		for _, cfg := range []parityConfig{
			{name: "baseline-hash-mem1", memEach: 1},
			{name: "ade-mem1", ade: func() *core.Options { o := core.DefaultOptions(); return &o }(), memEach: 1},
		} {
			assertParity(t,
				func() *ir.Program { return s.Build("") },
				func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
				cfg)
		}
	}
}

// TestEngineParityRandom diffs the engines over the random program
// family behind the core fuzz tests.
func TestEngineParityRandom(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			engineDiffSeed(t, seed)
		})
	}
}

func engineDiffSeed(t *testing.T, seed int64) {
	t.Helper()
	input := core.FuzzInput(seed)
	inputFor := func(a bench.Allocator) []interp.Val {
		c := a.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
		for _, x := range input {
			c.Append(interp.IntV(x))
		}
		return []interp.Val{interp.CollV(c)}
	}
	build := func() *ir.Program { return core.GenerateProgram(seed) }
	// Generous step/mem budgets so a pathological generated program
	// fails fast with the structured budget error (which must still be
	// engine-identical) instead of stalling the fuzz run.
	bud := parityConfig{maxSteps: 20_000_000, maxBytes: 1 << 30}
	bud.name = "random-baseline"
	assertParity(t, build, inputFor, bud)
	ade := core.DefaultOptions()
	bud.name, bud.ade = "random-ade", &ade
	assertParity(t, build, inputFor, bud)
}

// TestSignedZeroKeysUnderADE: EqVal holds the float zeros equal, so a
// set may hold only one of them, and which one must not depend on
// ADE. Set a receives one zero, set b the other, and the union joins
// them, so ForceAll gives both one shared enumeration that sees a's
// zero first. Every zero enters a set or an enumeration as +0, so b
// emits +0 with ADE off and on, on both engines, in either order.
func TestSignedZeroKeysUnderADE(t *testing.T) {
	pos, neg := 0.0, math.Copysign(0, -1)
	for _, zeros := range [][2]float64{{pos, neg}, {neg, pos}} {
		build := func() *ir.Program {
			p := ir.NewProgram()
			b := ir.NewFunc("main", ir.TU64)
			b.Fn.Exported = true
			sa := b.Insert(ir.Op(b.New(ir.SetOf(ir.TF64), "a")), ir.ConstFloat(ir.TF64, zeros[0]), "")
			sb := b.Insert(ir.Op(b.New(ir.SetOf(ir.TF64), "b")), ir.ConstFloat(ir.TF64, zeros[1]), "")
			sb = b.Union(ir.Op(sb), ir.Op(sa), "")
			l := ir.StartForEach(b, ir.Op(sb))
			b.Emit(l.Key)
			l.End()
			b.Ret(b.Size(ir.Op(sb), ""))
			p.Add(b.Fn)
			return p
		}
		force := core.DefaultOptions()
		force.ForceAll = true
		type outcome struct{ ret, count, sum uint64 }
		want := outcome{1, 1, collections.Mix64(0)}
		for _, ade := range []*core.Options{nil, &force} {
			prog := build()
			if ade != nil {
				if _, err := core.Apply(prog, *ade); err != nil {
					t.Fatalf("ade: %v", err)
				}
				enums := 0
				ir.WalkInstrs(prog.Funcs["main"], func(in *ir.Instr) {
					if in.Op == ir.OpNewEnum || in.Op == ir.OpEnumGlobal {
						enums++
					}
				})
				if enums != 1 {
					t.Fatalf("ForceAll created %d enumerations, want one shared by both sets", enums)
				}
			}
			for _, eng := range bench.Engines() {
				m, err := bench.NewMachine(ir.CloneProgram(prog), interp.DefaultOptions(), eng)
				if err != nil {
					t.Fatal(err)
				}
				ret, err := m.Run("main")
				if err != nil {
					t.Fatalf("%v then %v, ade=%v, %v: %v", zeros[0], zeros[1], ade != nil, eng, err)
				}
				if got := (outcome{ret.I, m.Stats.EmitCount, m.Stats.EmitSum}); got != want {
					t.Errorf("%v then %v, ade=%v, %v: ret/count/sum %v, want %v (one +0)",
						zeros[0], zeros[1], ade != nil, eng, got, want)
				}
			}
		}
	}
}

// TestStepBudgetParity verifies that both engines hit the step budget
// with the same diagnostic.
func TestStepBudgetParity(t *testing.T) {
	s := bench.Get("BFS")
	build := func() *ir.Program { return s.Build("") }
	inputFor := func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) }
	for _, budget := range []uint64{1, 10, 1000} {
		prog := build()
		iOpts := interp.DefaultOptions()
		iOpts.MaxSteps = budget
		ip := interp.New(prog, iOpts)
		_, iErr := ip.Run("main", inputFor(ip)...)

		bc, err := bytecode.Compile(build())
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m := vm.New(bc, iOpts)
		_, vErr := m.Run("main", inputFor(m)...)
		if (iErr == nil) != (vErr == nil) {
			t.Fatalf("budget %d: error divergence: interp=%v vm=%v", budget, iErr, vErr)
		}
		if iErr != nil && iErr.Error() != vErr.Error() {
			t.Fatalf("budget %d: message divergence: interp=%v vm=%v", budget, iErr, vErr)
		}
		if iErr != nil && ip.Stats.Steps != m.Stats.Steps {
			t.Fatalf("budget %d: steps at abort: interp=%d vm=%d", budget, ip.Stats.Steps, m.Stats.Steps)
		}
	}
}

// TestDisasmDeterministic compiles a benchmark twice and requires
// byte-identical disassembly.
func TestDisasmDeterministic(t *testing.T) {
	s := bench.Get("PTA")
	a, err := bytecode.Compile(s.Build(""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bytecode.Compile(s.Build(""))
	if err != nil {
		t.Fatal(err)
	}
	if bytecode.Disasm(a) != bytecode.Disasm(b) {
		t.Fatal("disassembly not deterministic across identical builds")
	}
}

// TestTelemetryZeroStatsDelta verifies that enabling telemetry leaves
// the measurement surface (Stats) bit-identical on both engines: the
// recorder observes but never counts.
func TestTelemetryZeroStatsDelta(t *testing.T) {
	for _, abbr := range []string{"BFS", "PTA", "FIM"} {
		s := bench.Get(abbr)
		if s == nil {
			t.Fatalf("missing benchmark %s", abbr)
		}
		build := func() *ir.Program {
			prog := s.Build("")
			o := core.DefaultOptions()
			if _, err := core.Apply(prog, o); err != nil {
				t.Fatalf("%s: ade: %v", abbr, err)
			}
			return prog
		}
		for _, eng := range []bench.Engine{bench.EngineInterp, bench.EngineVM} {
			run := func(rec *telemetry.Recorder) *interp.Stats {
				opts := interp.DefaultOptions()
				opts.Telemetry = rec
				m, err := bench.NewMachine(build(), opts, eng)
				if err != nil {
					t.Fatalf("%s/%v: new machine: %v", abbr, eng, err)
				}
				if _, err := m.Run("main", s.Input(m, bench.ScaleTest)...); err != nil {
					t.Fatalf("%s/%v: run: %v", abbr, eng, err)
				}
				m.FinalizeMem()
				return m.Stats
			}
			off := run(nil)
			on := run(telemetry.NewRecorder())
			if *off != *on {
				t.Errorf("%s/%v: telemetry changed Stats:\n  off: %+v\n  on:  %+v", abbr, eng, off, on)
			}
		}
	}
}
