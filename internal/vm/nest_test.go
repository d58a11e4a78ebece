package vm_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
)

// assertErrorParity runs build on both engines, once unlimited and
// once under a step budget it never reaches (so the interruption test
// runs on every step), and requires the same error, containing want,
// with identical partial Stats and telemetry.
func assertErrorParity(t *testing.T, name string, build func() *ir.Program, want string) {
	t.Helper()
	noInput := func(bench.Allocator) []interp.Val { return nil }
	for _, cfg := range []parityConfig{{name: name}, {name: name + "/limited", maxSteps: 1 << 20}} {
		_, _, iStats, iTele, iErr := runOn(t, bench.EngineInterp, build, noInput, cfg)
		_, _, vStats, vTele, vErr := runOn(t, bench.EngineVM, build, noInput, cfg)
		if iErr == nil || vErr == nil {
			t.Fatalf("%s: want an error on both engines: interp=%v vm=%v", cfg.name, iErr, vErr)
		}
		if iErr.Error() != vErr.Error() {
			t.Fatalf("%s: message divergence:\n  interp: %v\n  vm:     %v", cfg.name, iErr, vErr)
		}
		if !strings.Contains(iErr.Error(), want) {
			t.Fatalf("%s: error %q does not contain %q", cfg.name, iErr, want)
		}
		if *iStats != *vStats {
			t.Errorf("%s: partial stats divergence:\n  interp: steps=%d counts=%v\n  vm:     steps=%d counts=%v",
				cfg.name, iStats.Steps, iStats.Counts, vStats.Steps, vStats.Counts)
		}
		if !reflect.DeepEqual(iTele, vTele) {
			ib, vb := new(strings.Builder), new(strings.Builder)
			iTele.WriteText(ib)
			vTele.WriteText(vb)
			t.Errorf("%s: partial telemetry divergence:\n--- interp ---\n%s--- vm ---\n%s", cfg.name, ib, vb)
		}
	}
}

// parseWith parses src and applies edit to its @main, for the nesting
// paths the text syntax cannot spell (tuple fields) or the parser's
// type checks reject (paths into scalars and sets).
func parseWith(t *testing.T, src string, edit func(main *ir.Func)) func() *ir.Program {
	return func() *ir.Program {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(p.Funcs["main"])
		}
		return p
	}
}

// lastInstr returns the last top-level instruction of fn with opcode op.
func lastInstr(t *testing.T, fn *ir.Func, op ir.Opcode) *ir.Instr {
	var found *ir.Instr
	for _, n := range fn.Body.Nodes {
		if in, ok := n.(*ir.Instr); ok && in.Op == op {
			found = in
		}
	}
	if found == nil {
		t.Fatalf("@%s has no %v", fn.Name, op)
	}
	return found
}

// setPath gives the first operand of fn's last op instruction the path p.
func setPath(t *testing.T, op ir.Opcode, p ...ir.Index) func(*ir.Func) {
	return func(fn *ir.Func) { lastInstr(t, fn, op).Args[0].Path = p }
}

// TestNestedPathDiagnostics pins every diagnostic a nesting path can
// raise: one small program per message, each failing identically on
// both engines, with the same partial counts (the failing hop's read
// and the step of the instruction it feeds).
func TestNestedPathDiagnostics(t *testing.T) {
	scalarSrc := `fn u64 @main(): exported
  %x := add(1, 2)
  emit(%x)
  ret %x
`
	cases := []struct {
		name, want string
		build      func() *ir.Program
	}{
		{"missing-key", "nested read of missing key 7", parseWith(t, `fn u64 @main(): exported
  %m := new Map<u64,Set<u64>>()
  %m1 := insert(%m, 3)
  %m2 := insert(%m1[3], 9)
  %k := add(3, 4)
  %n := size(%m2[%k])
  ret %n
`, nil)},
		{"missing-const-key", "nested read of missing key 5", parseWith(t, `fn u64 @main(): exported
  %m := new Map<u64,Map<u64,u64>>()
  %m1 := insert(%m, 3)
  %n := has(%m1[5], 1)
  ret %n
`, nil)},
		{"seq-index", "nested seq index 5 out of range [0,1)", parseWith(t, `fn u64 @main(): exported
  %s := new Seq<Seq<u64>>()
  %inner := new Seq<u64>()
  %s1 := insert(%s, end, %inner)
  %n := size(%s1[5])
  ret %n
`, nil)},
		{"field-on-scalar", "tuple access .0 on 3", parseWith(t, scalarSrc,
			setPath(t, ir.OpEmit, ir.Index{Kind: ir.IdxField, Num: 0}))},
		{"field-out-of-range", "tuple access .5 on", parseWith(t, `fn u64 @main(): exported
  %t := tuple(1, 2)
  emit(%t)
  ret 0
`, setPath(t, ir.OpEmit, ir.Index{Kind: ir.IdxField, Num: 5}))},
		{"index-scalar", "indexing non-collection 3", parseWith(t, scalarSrc,
			setPath(t, ir.OpEmit, ir.Index{Kind: ir.IdxConst, Num: 0}))},
		{"index-set", "indexing into a set", parseWith(t, `fn u64 @main(): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 4)
  %n := size(%s1)
  ret %n
`, setPath(t, ir.OpSize, ir.Index{Kind: ir.IdxConst, Num: 4}))},
		// The interpreter counts a seq insert before it resolves the
		// position, so the failing position read leaves that count.
		{"seq-insert-position", "nested read of missing key 2", parseWith(t, `fn u64 @main(): exported
  %m := new Map<u64,u64>()
  %s := new Seq<u64>()
  %s1 := insert(%s, %m[2], 5)
  ret 0
`, nil)},
		{"end-index", "end index cannot be resolved as a value", parseWith(t, `fn u64 @main(): exported
  %m := new Map<u64,Set<u64>>()
  %m1 := insert(%m, 3)
  %n := size(%m1[end])
  ret %n
`, nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { assertErrorParity(t, c.name, c.build, c.want) })
	}
}

// TestNestedForEachFailureParity: the interpreter resolves a for-each's
// collection before it counts the loop's step, so a failing nested
// collection read leaves the step uncounted on both engines.
func TestNestedForEachFailureParity(t *testing.T) {
	assertErrorParity(t, "foreach-missing-key", parseWith(t, `fn u64 @main(): exported
  %m := new Map<u64,Set<u64>>()
  %m1 := insert(%m, 3)
  %k := add(3, 4)
  for [%a, %b] in %m1[%k]:
    emit(%a)
  ret 0
`, nil), "nested read of missing key 7")
}

// stepOps returns the op counts of the interpreter's n-th step: what a
// run limited to n steps completes beyond one limited to n-1.
func stepOps(t *testing.T, build func() *ir.Program, inputFor func(bench.Allocator) []interp.Val,
	cfg parityConfig, n uint64) (delta interp.Stats) {
	t.Helper()
	limit := func(k uint64) *interp.Stats {
		_, _, st, _, _ := runLimited(t, bench.EngineInterp, build, inputFor, cfg,
			func(o *interp.Options) { o.MaxSteps = k })
		return st
	}
	hi, lo := limit(n), limit(n-1)
	for i := range delta.Counts {
		for k := range delta.Counts[i] {
			delta.Counts[i][k] = hi.Counts[i][k] - lo.Counts[i][k]
		}
	}
	return delta
}

// readsNested reports whether a step's op counts show a nesting-path
// read: a read beside another collection operation, which no
// instruction without a nested operand counts.
func readsNested(delta interp.Stats) bool {
	var reads, others uint64
	for i := range delta.Counts {
		for k, n := range delta.Counts[i] {
			switch interp.OpKind(k) {
			case interp.OKRead:
				reads += n
			case interp.OKScalar:
			default:
				others += n
			}
		}
	}
	return reads > 0 && others > 0
}

// TestInterruptionParityNested sweeps the step budget across PTA, the
// suite program with the most nesting-path operands, and trips a
// pending memory stop, requiring engine-identical interruptions (as
// TestInterruptionParitySuite does) where the tripping instruction
// reads through a nesting path. A hop that ran before its
// instruction's interruption test would count a read the interpreter
// never counts.
func TestInterruptionParityNested(t *testing.T) {
	s := bench.Get("PTA")
	build := func() *ir.Program { return s.Build("") }
	inputFor := func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) }
	ade := core.DefaultOptions()
	for _, cfg := range []parityConfig{{name: "baseline-hash"}, {name: "ade", ade: &ade}} {
		nested := 0
		for budget := uint64(1); budget < 14000; budget += 97 {
			name := fmt.Sprintf("PTA/%s/max-steps=%d", cfg.name, budget)
			if !assertInterrupted(t, name, build, inputFor, cfg,
				func(o *interp.Options) { o.MaxSteps = budget }, interp.ErrStepBudget) {
				break
			}
			if readsNested(stepOps(t, build, inputFor, cfg, budget+1)) {
				nested++
			}
		}
		if nested == 0 {
			t.Errorf("PTA/%s: no step-budget trip landed on a nested-operand instruction", cfg.name)
		}

		// A memory stop goes pending at the growth that crosses the
		// budget and trips at the next interruption test.
		_, _, full, _, _ := runLimited(t, bench.EngineInterp, build, inputFor, cfg,
			func(o *interp.Options) { o.MemSampleEvery = 1 })
		memNested := 0
		for limit := full.PeakBytes / 2; limit < full.PeakBytes; limit += full.PeakBytes / 64 {
			name := fmt.Sprintf("PTA/%s/max-bytes=%d", cfg.name, limit)
			if !assertInterrupted(t, name, build, inputFor, cfg,
				func(o *interp.Options) { o.MaxBytes, o.MemSampleEvery = limit, 1 }, interp.ErrMemBudget) {
				continue
			}
			_, _, _, _, err := runLimited(t, bench.EngineInterp, build, inputFor, cfg,
				func(o *interp.Options) { o.MaxBytes, o.MemSampleEvery = limit, 1 })
			var le *interp.LimitError
			if errors.As(err, &le) && readsNested(stepOps(t, build, inputFor, cfg, le.Steps)) {
				memNested++
			}
		}
		if memNested == 0 {
			t.Errorf("PTA/%s: no pending memory stop tripped on a nested-operand instruction", cfg.name)
		}
		t.Logf("PTA/%s: nested-operand trips: %d on the step budget, %d on a memory stop", cfg.name, nested, memNested)
	}
}
