package vm_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// runLimited is runOn with an extra option mutator, so interruption
// tests can set budgets, contexts, and fault injectors on top of a
// parity column.
func runLimited(t *testing.T, eng bench.Engine, build func() *ir.Program,
	inputFor func(bench.Allocator) []interp.Val, cfg parityConfig, mod func(*interp.Options),
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
	mod(&opts)
	m, err := bench.NewMachine(prog, opts, eng)
	if err != nil {
		t.Fatalf("%s: new %v machine: %v", cfg.name, eng, err)
	}
	args := inputFor(m)
	ret, runErr := m.Run("main", args...)
	m.FinalizeMem()
	return ret, m.Output, m.Stats, opts.Telemetry.Result(), runErr
}

// assertInterrupted runs the program on both engines under the same
// limits and requires the interruption surface to be engine-identical:
// the same structured error kind, the same message, and byte-identical
// partial Stats and telemetry at the abort point. Returns whether the
// run was actually interrupted (both engines completing is legal when
// the budget was never hit — but they must agree on that too).
func assertInterrupted(t *testing.T, name string, build func() *ir.Program,
	inputFor func(bench.Allocator) []interp.Val, cfg parityConfig,
	mod func(*interp.Options), wantKind error,
) bool {
	t.Helper()
	_, _, iStats, iTele, iErr := runLimited(t, bench.EngineInterp, build, inputFor, cfg, mod)
	_, _, vStats, vTele, vErr := runLimited(t, bench.EngineVM, build, inputFor, cfg, mod)
	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("%s: error divergence: interp=%v vm=%v", name, iErr, vErr)
	}
	if iErr == nil {
		return false
	}
	if !errors.Is(iErr, wantKind) {
		t.Fatalf("%s: interp error kind: got %v, want %v", name, iErr, wantKind)
	}
	if !errors.Is(vErr, wantKind) {
		t.Fatalf("%s: vm error kind: got %v, want %v", name, vErr, wantKind)
	}
	if iErr.Error() != vErr.Error() {
		t.Fatalf("%s: message divergence:\n  interp: %v\n  vm:     %v", name, iErr, vErr)
	}
	if *iStats != *vStats {
		t.Errorf("%s: partial stats divergence at interruption:\n  interp: steps=%d peak=%d cur=%d\n  vm:     steps=%d peak=%d cur=%d",
			name, iStats.Steps, iStats.PeakBytes, iStats.CurBytes, vStats.Steps, vStats.PeakBytes, vStats.CurBytes)
	}
	if !reflect.DeepEqual(iTele, vTele) {
		ib, vb := new(strings.Builder), new(strings.Builder)
		iTele.WriteText(ib)
		vTele.WriteText(vb)
		t.Errorf("%s: partial telemetry divergence:\n--- interp ---\n%s--- vm ---\n%s", name, ib, vb)
	}
	// Even an interrupted run's profile serialization must agree: a
	// shard emitted from a budget-capped fleet run still merges cleanly.
	assertProfileParity(t, name, ir.ProgramHash(build()), iTele, vTele)
	return true
}

// TestInterruptionParitySuite crosses the full benchmark suite with
// the parity configurations and two step budgets: wherever the budget
// trips, both engines must return the same structured error with
// byte-identical partial Stats and telemetry.
func TestInterruptionParitySuite(t *testing.T) {
	for _, s := range bench.All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			interruptions := 0
			for _, cfg := range parityConfigs() {
				for _, budget := range []uint64{7, 123} {
					budget := budget
					name := fmt.Sprintf("%s/%s/max-steps=%d", s.Abbr, cfg.name, budget)
					if assertInterrupted(t, name,
						func() *ir.Program { return s.Build("") },
						func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
						cfg, func(o *interp.Options) { o.MaxSteps = budget }, interp.ErrStepBudget) {
						interruptions++
					}
				}
			}
			if interruptions == 0 {
				t.Errorf("%s: no configuration hit the step budget — budgets too large to exercise interruption", s.Abbr)
			}
		})
	}
}

// TestStepBudgetStructured pins the structured form of a step-budget
// abort: a *LimitError carrying the budget sentinel and the exact step
// count the legacy string diagnostic reported.
func TestStepBudgetStructured(t *testing.T) {
	s := bench.Get("BFS")
	build := func() *ir.Program { return s.Build("") }
	inputFor := func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) }
	for _, eng := range []bench.Engine{bench.EngineInterp, bench.EngineVM} {
		_, _, stats, _, err := runLimited(t, eng, build, inputFor,
			parityConfig{name: "baseline-hash"}, func(o *interp.Options) { o.MaxSteps = 10 })
		var le *interp.LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%v: got %v, want *LimitError", eng, err)
		}
		if le.Kind != interp.ErrStepBudget || le.Fn != "main" {
			t.Fatalf("%v: LimitError = %+v", eng, le)
		}
		if le.Steps != 11 || stats.Steps != 11 {
			t.Fatalf("%v: abort at step %d (stats %d), want MaxSteps+1 = 11", eng, le.Steps, stats.Steps)
		}
		if !strings.Contains(err.Error(), "step budget exceeded") {
			t.Fatalf("%v: legacy diagnostic lost: %v", eng, err)
		}
	}
}

// TestMemBudgetParity: a 1-byte memory budget with every growth event
// sampled trips on the first input allocation; the violation must
// surface at the first step checkpoint on both engines with identical
// diagnostics and partial measurements.
func TestMemBudgetParity(t *testing.T) {
	for _, abbr := range []string{"BFS", "PTA", "FIM"} {
		s := bench.Get(abbr)
		if s == nil {
			t.Fatalf("missing benchmark %s", abbr)
		}
		for _, cfg := range []parityConfig{
			{name: "baseline-hash"},
			{name: "ade", ade: func() *core.Options { o := core.DefaultOptions(); return &o }()},
		} {
			interrupted := assertInterrupted(t, abbr+"/"+cfg.name,
				func() *ir.Program { return s.Build("") },
				func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
				cfg, func(o *interp.Options) { o.MaxBytes = 1; o.MemSampleEvery = 1 }, interp.ErrMemBudget)
			if !interrupted {
				t.Errorf("%s/%s: 1-byte budget never tripped", abbr, cfg.name)
			}
		}
	}
}

// TestDeadlineParity: an already-cancelled context must abort both
// engines at the first deterministic poll point (step 1).
func TestDeadlineParity(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := bench.Get("BFS")
	interrupted := assertInterrupted(t, "BFS/cancelled",
		func() *ir.Program { return s.Build("") },
		func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
		parityConfig{name: "baseline-hash"},
		func(o *interp.Options) { o.Context = ctx }, interp.ErrDeadline)
	if !interrupted {
		t.Fatal("cancelled context never aborted the run")
	}
}

// countingAlloc counts pass-through allocations so tests can aim an
// alloc-fail injection past the input-building prefix.
type countingAlloc struct {
	a bench.Allocator
	n *int
}

func (c countingAlloc) NewColl(ct *ir.CollType) interp.Coll { *c.n++; return c.a.NewColl(ct) }

// TestRuntimePanicParity injects an allocation failure at the first
// in-program allocation: both engines must recover the panic at the
// Run boundary and return the same structured ErrRuntimePanic naming
// the injection point.
func TestRuntimePanicParity(t *testing.T) {
	s := bench.Get("BFS")
	nInput := 0
	{
		m, err := bench.NewMachine(s.Build(""), interp.DefaultOptions(), bench.EngineInterp)
		if err != nil {
			t.Fatal(err)
		}
		s.Input(countingAlloc{m, &nInput}, bench.ScaleTest)
	}
	pt, err := faults.ByName(fmt.Sprintf("alloc-fail:%d", nInput+1))
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, eng := range []bench.Engine{bench.EngineInterp, bench.EngineVM} {
		_, _, _, _, runErr := runLimited(t, eng,
			func() *ir.Program { return s.Build("") },
			func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
			parityConfig{name: "baseline-hash"},
			func(o *interp.Options) { o.Faults = faults.NewInjector(pt) })
		if !errors.Is(runErr, interp.ErrRuntimePanic) {
			t.Fatalf("%v: got %v, want ErrRuntimePanic", eng, runErr)
		}
		if !strings.Contains(runErr.Error(), pt.Name) {
			t.Fatalf("%v: diagnostic does not name the injection point: %v", eng, runErr)
		}
		msgs = append(msgs, runErr.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("panic message divergence:\n  interp: %s\n  vm:     %s", msgs[0], msgs[1])
	}
}

// TestEnumCorruptParity: a corrupted enumeration slot is a silent
// miscompile, not a crash — but it is the SAME silent miscompile on
// both engines, because the corruption fires at the same dynamic add.
func TestEnumCorruptParity(t *testing.T) {
	s := bench.Get("BFS")
	ade := core.DefaultOptions()
	pt, err := faults.ByName("enum-corrupt:1")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *ir.Program { return s.Build("") }
	inputFor := func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) }
	cfg := parityConfig{name: "ade-corrupt", ade: &ade}
	iRet, iOut, _, _, iErr := runLimited(t, bench.EngineInterp, build, inputFor, cfg,
		func(o *interp.Options) { o.Faults = faults.NewInjector(pt) })
	vRet, vOut, _, _, vErr := runLimited(t, bench.EngineVM, build, inputFor, cfg,
		func(o *interp.Options) { o.Faults = faults.NewInjector(pt) })
	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("error divergence: interp=%v vm=%v", iErr, vErr)
	}
	if iErr != nil {
		if iErr.Error() != vErr.Error() {
			t.Fatalf("message divergence:\n  interp: %v\n  vm:     %v", iErr, vErr)
		}
		return
	}
	if iRet.Bits() != vRet.Bits() {
		t.Fatalf("ret divergence under corruption: interp=%v vm=%v", iRet, vRet)
	}
	if len(iOut) != len(vOut) {
		t.Fatalf("output length divergence: interp=%d vm=%d", len(iOut), len(vOut))
	}
	for i := range iOut {
		if iOut[i].Bits() != vOut[i].Bits() {
			t.Fatalf("output[%d] divergence: interp=%v vm=%v", i, iOut[i], vOut[i])
		}
	}
}
