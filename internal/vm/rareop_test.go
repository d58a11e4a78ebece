package vm_test

import (
	"testing"

	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// TestRareOpcodeParity pins the opcodes the benchmark suite almost
// never dispatches (DESIGN.md §19): one small program per opcode, each
// checked to compile to that opcode, run on both engines under every
// parity configuration and under a step budget, with identical results,
// Stats and telemetry. Every runtime error verified IR can reach in
// these opcodes fails identically on both engines.
func TestRareOpcodeParity(t *testing.T) {
	cases := []struct {
		name string
		op   bytecode.Op
		want string // expected error; "" runs to completion
		src  string
	}{
		{"union", bytecode.OpUnion, "", `fn u64 @main(): exported
  %a := new Set<u64>()
  %a1 := insert(%a, 3)
  %a2 := insert(%a1, 700)
  %b := new Set<u64>()
  %b1 := insert(%b, 5)
  %b2 := insert(%b1, 3)
  %u := union(%a2, %b2)
  %n := size(%u)
  emit(%n)
  for [%k, %v] in %u:
    emit(%k)
  ret %n
`},
		{"tuple-field", bytecode.OpField, "", `fn u64 @main(): exported
  %x := add(1, 2)
  %t := tuple(%x, 7)
  %y := field(%t, 1)
  %z := field(%t, 0)
  emit(%y)
  emit(%z)
  ret %y
`},
		{"tuple", bytecode.OpTuple, "", `fn u64 @main(): exported
  %x := add(4, 5)
  %t := tuple(%x, %x, 2)
  %y := field(%t, 2)
  emit(%y)
  ret %y
`},
		{"remove-set", bytecode.OpRemoveSet, "", `fn u64 @main(): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 3)
  %s2 := insert(%s1, 9)
  %s3 := remove(%s2, 3)
  %s4 := remove(%s3, 11)
  %n := size(%s4)
  emit(%n)
  ret %n
`},
		{"remove-map", bytecode.OpRemoveMap, "", `fn u64 @main(): exported
  %m := new Map<u64,u64>()
  %m1 := insert(%m, 3)
  %m2 := insert(%m1, 8)
  %m3 := write(%m2, 8, 40)
  %m4 := remove(%m3, 3)
  %m5 := remove(%m4, 12)
  %n := size(%m5)
  %v := read(%m5, 8)
  emit(%n)
  emit(%v)
  ret %n
`},
		{"remove-seq", bytecode.OpRemoveSeq, "", `fn u64 @main(): exported
  %s := new Seq<u64>()
  %s1 := insert(%s, end, 10)
  %s2 := insert(%s1, end, 20)
  %s3 := insert(%s2, end, 30)
  %s4 := remove(%s3, 1)
  %n := size(%s4)
  %v := read(%s4, 1)
  emit(%n)
  emit(%v)
  ret %v
`},
		{"remove-seq-range", bytecode.OpRemoveSeq, "seq remove index 2 out of range", `fn u64 @main(): exported
  %s := new Seq<u64>()
  %s1 := insert(%s, end, 10)
  %s2 := remove(%s1, 2)
  ret 0
`},
		{"clear", bytecode.OpClear, "", `fn u64 @main(): exported
  %m := new Map<u64,u64>()
  %m1 := insert(%m, 3)
  %m2 := clear(%m1)
  %s := new Set<u64>()
  %s1 := insert(%s, 4)
  %s2 := clear(%s1)
  %q := new Seq<u64>()
  %q1 := insert(%q, end, 4)
  %q2 := clear(%q1)
  %a := size(%m2)
  %b := size(%s2)
  %c := size(%q2)
  %n := add(%a, %b)
  %n1 := add(%n, %c)
  emit(%n1)
  ret %n1
`},
		{"insert-seq-at", bytecode.OpInsertSeqAt, "", `fn u64 @main(): exported
  %s := new Seq<u64>()
  %s1 := insert(%s, end, 10)
  %s2 := insert(%s1, 0, 5)
  %s3 := insert(%s2, 2, 15)
  %v := read(%s3, 0)
  %w := read(%s3, 2)
  %n := size(%s3)
  emit(%v)
  emit(%w)
  ret %n
`},
		{"insert-seq-at-range", bytecode.OpInsertSeqAt, "seq insert index 3 out of range", `fn u64 @main(): exported
  %s := new Seq<u64>()
  %s1 := insert(%s, end, 10)
  %s2 := insert(%s1, 3, 5)
  ret 0
`},
		{"write-seq", bytecode.OpWriteSeq, "", `fn u64 @main(): exported
  %s := new Seq<u64>()
  %s1 := insert(%s, end, 10)
  %s2 := insert(%s1, end, 20)
  %s3 := write(%s2, 1, 99)
  %v := read(%s3, 1)
  emit(%v)
  ret %v
`},
		{"write-seq-range", bytecode.OpWriteSeq, "seq write index 1 out of range", `fn u64 @main(): exported
  %s := new Seq<u64>()
  %s1 := insert(%s, end, 10)
  %s2 := write(%s1, 1, 99)
  ret 0
`},
		{"cast-f", bytecode.OpCastF, "", `fn u64 @main(): exported
  %x := add(3, 4)
  %f := cast<f64>(%x)
  %g := mul(%f, %f)
  %h := cast<f64>(%g)
  %y := cast<u64>(%h)
  emit(%y)
  ret %y
`},
		{"newenum", bytecode.OpNewEnum, "", `fn u64 @main(): exported
  %e := new Enum<u64>()
  (%e1, %i) := call @add(%e, 42)
  (%e2, %j) := call @add(%e1, 7)
  %v := call @dec(%e2, %j)
  %k := call @enc(%e2, 42)
  emit(%v)
  emit(%k)
  ret %k
`},
		{"enumglobal", bytecode.OpEnumGlobal, "", `fn u64 @main(): exported
  %x := call @put(42)
  %y := call @put(7)
  %z := call @put(42)
  emit(%x)
  emit(%y)
  emit(%z)
  ret %y

fn u64 @put(%v: u64):
  %g := enumglobal @g
  (%g1, %i) := call @add(%g, %v)
  ret %i
`},
		{"raise", bytecode.OpRaise, "return inside for-each is unsupported", `fn u64 @main(): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 3)
  for [%k, %v] in %s1:
    emit(%k)
    ret %k
  ret 0
`},
	}
	noInput := func(bench.Allocator) []interp.Val { return nil }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := parseWith(t, c.src, nil)
			if !dispatches(t, build(), c.op) {
				t.Fatalf("program does not compile to %v", c.op)
			}
			if c.want != "" {
				assertErrorParity(t, c.name, build, c.want)
				return
			}
			cfgs := append(parityConfigs(), parityConfig{name: "limited", maxSteps: 1 << 20})
			for _, cfg := range cfgs {
				assertParity(t, build, noInput, cfg)
				if _, _, _, _, err := runOn(t, bench.EngineVM, build, noInput, cfg); err != nil {
					t.Errorf("%s: %v", cfg.name, err)
				}
			}
		})
	}
}

// dispatches reports whether any function of p compiles to op.
func dispatches(t *testing.T, p *ir.Program, op bytecode.Op) bool {
	t.Helper()
	bc, err := bytecode.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range bc.Funcs {
		for _, in := range f.Code {
			if in.Op == op {
				return true
			}
		}
	}
	return false
}
