package bytecode_test

import (
	"strings"
	"testing"

	"memoir/internal/bytecode"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// nestSrc puts a nesting path in every operand position the lowering
// handles: an update's base (whose result is the outer handle), keys
// and values, a seq insert's position, a two-step path, call and tuple
// arguments, a for-each collection and a return.
const nestSrc = `fn u64 @first(%s: Seq<u64>):
  %x := read(%s, 0)
  ret %x

fn u64 @main(): exported
  %idx := new Map<u64,u64>()
  %idx1 := insert(%idx, 2)
  %idx2 := write(%idx1, 2, 1)
  %m := new Map<u64,Seq<u64>>()
  %m1 := insert(%m, 1)
  %m2 := insert(%m1[1], end, 5)
  %m3 := insert(%m2[1], %idx2[2], %idx2[2])
  %v := read(%m3[1], %idx2[2])
  %f := call @first(%m3[1])
  %t := tuple(%m3[1], %idx2[2])
  for [%i, %e] in %m3[1]:
    emit(%e)
  emit(%m3[1][0])
  emit(%v)
  emit(%f)
  ret %m3[1][1]
`

// hopsBefore returns the hops directly preceding pc.
func hopsBefore(f *bytecode.Func, pc int) []bytecode.Instr {
	lo := pc
	for lo > 0 && f.Code[lo-1].Op == bytecode.OpNest {
		lo--
	}
	return f.Code[lo:pc]
}

// TestNestLowering: every nesting-path step becomes one hop into a
// scratch register, in the order the interpreter resolves operands,
// with the role of the instruction it feeds; the program runs
// identically on both engines.
func TestNestLowering(t *testing.T) {
	f := coalesceRun(t, nestSrc, []uint64{})
	scratch := int32(f.NumSlots + len(f.Consts))
	if got := int32(f.FrameLen) - scratch; got != 3 {
		t.Errorf("%d scratch registers, want 3 (the seq insert's three hops)\n%s", got, disasmFunc(f))
	}
	for pc, in := range f.Code {
		if in.Op == bytecode.OpNest && in.Dst < scratch {
			t.Errorf("pc %d: hop writes r%d below scratch r%d", pc, in.Dst, scratch)
		}
	}

	at := findOp(t, f, bytecode.OpInsertSeqAt)
	ins, hops := f.Code[at], hopsBefore(f, at)
	if len(hops) != 3 {
		t.Fatalf("seq insert fed by %d hops, want 3\n%s", len(hops), disasmFunc(f))
	}
	// Base, then value, then position: the interpreter resolves the
	// position after it counts the insert.
	for i, want := range []struct {
		role int32
		reg  int32
	}{{bytecode.NestStep, ins.A}, {bytecode.NestStep, ins.C}, {bytecode.NestSeqPos, ins.B}} {
		if hops[i].Aux2 != want.role || hops[i].Dst != want.reg {
			t.Errorf("hop %d: role %d into r%d, want role %d into r%d", i, hops[i].Aux2, hops[i].Dst, want.role, want.reg)
		}
	}
	if hops[2].C != ins.A {
		t.Errorf("position hop names sequence r%d, want the insert's r%d", hops[2].C, ins.A)
	}

	fe := findOp(t, f, bytecode.OpForEach)
	forEachHop := false
	for _, in := range f.Code[:fe] {
		if in.Op == bytecode.OpNest && in.Aux2 == bytecode.NestForEach && in.Dst == f.Code[fe].A {
			forEachHop = true
		}
	}
	if !forEachHop {
		t.Errorf("no NestForEach hop feeds the for-each\n%s", disasmFunc(f))
	}

	call := findOp(t, f, bytecode.OpCall)
	if hops := hopsBefore(f, call); len(hops) != 1 || f.ArgLists[f.Code[call].Aux2][0] != hops[0].Dst {
		t.Errorf("call argument does not read its hop\n%s", disasmFunc(f))
	}

	ret := findOp(t, f, bytecode.OpReturn)
	if hops := hopsBefore(f, ret); len(hops) != 2 || hops[1].A != hops[0].Dst || hops[1].Dst != f.Code[ret].A {
		t.Errorf("two-step path is not a chain of two hops into the return's register\n%s", disasmFunc(f))
	}
}

// TestNestVerifyRejects: the verifier checks a hop's index kind, its
// role and the registers it reads, and that a call's arguments, which
// may be hop results, are written before the call.
func TestNestVerifyRejects(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(in *bytecode.Instr, f *bytecode.Func)
	}{
		{"index-kind", "index kind", func(in *bytecode.Instr, _ *bytecode.Func) { in.Aux = 9 }},
		{"role", "hop role", func(in *bytecode.Instr, _ *bytecode.Func) { in.Aux2 = 7 }},
		{"key-outside-frame", "outside frame", func(in *bytecode.Instr, f *bytecode.Func) {
			in.Aux, in.B = int32(ir.IdxValue), int32(f.FrameLen)
		}},
		{"key-unwritten", "before it is written", func(in *bytecode.Instr, f *bytecode.Func) {
			in.Aux, in.B = int32(ir.IdxValue), int32(f.FrameLen-1)
		}},
		{"argument-unwritten", "argument 0 reads register", func(_ *bytecode.Instr, f *bytecode.Func) {
			// The loop key is first written after the call.
			f.ArgLists[f.Code[findOp(t, f, bytecode.OpCall)].Aux2][0] = f.Code[findOp(t, f, bytecode.OpForEach)].Dst
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bc := compileSrc(t, nestSrc)
			f := bc.Funcs[bc.ByName["main"]]
			tc.corrupt(&f.Code[findOp(t, f, bytecode.OpNest)], f)
			err := bytecode.Verify(bc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestConstPoolByValue: a function's constant pool holds each distinct
// value once, whatever the literal's type, while values that differ in
// kind or bits (an integer and a float zero) stay apart.
func TestConstPoolByValue(t *testing.T) {
	src := `fn u64 @main(%n: u64): exported
  %a := add(%n, 0)
  %b := add(%a, 1)
  %c := mul(%b, 1)
  %d := cast<u32>(%c)
  %e := add(%d, 0)
  %f := cast<f64>(%e)
  %g := add(%f, 0.0)
  %h := add(%g, 1.0)
  %s := new Seq<str>()
  %s1 := insert(%s, end, "x")
  %s2 := insert(%s1, end, "x")
  %s3 := insert(%s2, end, "y")
  emit(%h)
  %z := size(%s3)
  %r := add(%z, %b)
  ret %r
`
	f := coalesceRun(t, src, []uint64{0}, []uint64{41})
	want := []interp.Val{interp.IntV(0), interp.IntV(1), interp.FloatV(0), interp.FloatV(1),
		interp.StrV("x"), interp.StrV("y")}
	if len(f.Consts) != len(want) {
		t.Fatalf("pool %v, want %v", f.Consts, want)
	}
	for i, v := range want {
		if c := f.Consts[i]; c.K != v.K || c.I != v.I || c.Str() != v.Str() {
			t.Errorf("pool[%d] = %v, want %v", i, c, v)
		}
	}
}
