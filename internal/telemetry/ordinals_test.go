package telemetry_test

import (
	"os"
	"testing"

	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/telemetry"
)

func parseFixture(t *testing.T) *ir.Program {
	t.Helper()
	src, err := os.ReadFile("../../testdata/histogram.mir")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// allocSeq renders fn's allocations in ordinal order as their
// allocated types, the identity a SiteKey's Alloc half must preserve.
func allocSeq(fn *ir.Func) []string {
	ords := telemetry.AllocOrdinals(fn)
	out := make([]string, len(ords))
	for in, o := range ords {
		out[o] = in.Alloc.String()
	}
	return out
}

func sameSeq(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: allocation count %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: allocation %d: %s vs %s", what, i, a[i], b[i])
		}
	}
}

// TestKeyStableAcrossReparse pins that a profile collected on one parse
// applies to a print/re-parse roundtrip of the same program: allocation
// ordinals depend only on walk order.
func TestKeyStableAcrossReparse(t *testing.T) {
	p1 := parseFixture(t)
	p2, err := parser.Parse(ir.Print(p1))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for _, name := range p1.Order {
		f2 := p2.Funcs[name]
		if f2 == nil {
			t.Fatalf("function @%s lost in roundtrip", name)
		}
		sameSeq(t, "@"+name, allocSeq(p1.Funcs[name]), allocSeq(f2))
	}
}

// TestKeyStableAcrossClone pins the clone half of the contract:
// ir.CloneFunc preserves walk order, so a clone inherits the
// original's allocation ordinals (how interprocedural clones reuse
// profiles).
func TestKeyStableAcrossClone(t *testing.T) {
	prog := parseFixture(t)
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		sameSeq(t, "@"+name+" clone", allocSeq(fn), allocSeq(ir.CloneFunc(fn, name+"$enum")))
	}
}

// TestAllocOrdinalsSurviveADE pins the property the site key depends
// on: the ADE transform inserts translations but never allocations, so
// each allocation instruction keeps its ordinal.
func TestAllocOrdinalsSurviveADE(t *testing.T) {
	prog := parseFixture(t)
	before := map[*ir.Instr]int{}
	for _, name := range prog.Order {
		for in, o := range telemetry.AllocOrdinals(prog.Funcs[name]) {
			before[in] = o
		}
	}
	if len(before) == 0 {
		t.Fatal("fixture has no allocations")
	}
	if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
		t.Fatalf("ade: %v", err)
	}
	after := map[*ir.Instr]int{}
	nAllocs := 0
	for _, name := range prog.Order {
		ords := telemetry.AllocOrdinals(prog.Funcs[name])
		nAllocs += len(ords)
		for in, o := range ords {
			after[in] = o
		}
	}
	if nAllocs != len(before) {
		t.Fatalf("allocation count changed: %d -> %d", len(before), nAllocs)
	}
	for in, o := range before {
		if after[in] != o {
			t.Fatalf("allocation ordinal moved: %d -> %d", o, after[in])
		}
	}
}
