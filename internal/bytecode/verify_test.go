package bytecode_test

import (
	"errors"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/core"
	"memoir/internal/difftest"
	"memoir/internal/parser"
)

func compileSrc(t *testing.T, src string) *bytecode.Prog {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bc
}

// TestVerifyBenchSuite: every benchmark (and variant), both as written
// and after the full ADE transformation, compiles to bytecode the
// verifier accepts.
func TestVerifyBenchSuite(t *testing.T) {
	specs := bench.All()
	if len(specs) < 18 {
		t.Fatalf("bench suite has %d specs, want >= 18", len(specs))
	}
	for _, s := range specs {
		for _, variant := range append([]string{""}, s.Variants...) {
			for _, ade := range []bool{false, true} {
				prog := s.Build(variant)
				if ade {
					if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
						t.Fatalf("%s/%s: ade: %v", s.Abbr, variant, err)
					}
				}
				bc, err := bytecode.Compile(prog)
				if err != nil {
					t.Fatalf("%s/%s (ade=%v): compile: %v", s.Abbr, variant, ade, err)
				}
				if err := bytecode.Verify(bc); err != nil {
					t.Errorf("%s/%s (ade=%v): %v", s.Abbr, variant, ade, err)
				}
			}
		}
	}
}

// TestVerifyEnumSkeletons: the bound-2 skeleton enumeration verifies,
// raw and transformed.
func TestVerifyEnumSkeletons(t *testing.T) {
	for _, sk := range difftest.EnumeratePrograms(2) {
		for _, ade := range []bool{false, true} {
			prog := sk.Build()
			if ade {
				if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
					t.Fatalf("%s: ade: %v", sk.ID, err)
				}
			}
			bc, err := bytecode.Compile(prog)
			if err != nil {
				t.Fatalf("%s (ade=%v): compile: %v", sk.ID, ade, err)
			}
			if err := bytecode.Verify(bc); err != nil {
				t.Errorf("%s (ade=%v): %v", sk.ID, ade, err)
			}
		}
	}
}

const corruptSrc = `fn u64 @helper(%x: u64):
  %r := add(%x, 1)
  ret %r
fn u64 @main(%n: u64): exported
  %s := new Set<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %s1 := insert(%s0, %i)
    %i1 := add(%i, 1)
    %c := lt(%i1, %n)
  while %c
  %sF := phi(%s0)
  %acc := new Seq<u64>()
  for [%k, %v] in %sF:
    %a0 := phi(%acc, %a1)
    %h := call @helper(%k)
    %a1 := insert(%a0, end, %h)
  %aF := phi(%a0)
  %z := size(%aF)
  ret %z
`

func findOp(t *testing.T, f *bytecode.Func, op bytecode.Op) int {
	t.Helper()
	for pc := range f.Code {
		if f.Code[pc].Op == op {
			return pc
		}
	}
	t.Fatalf("@%s has no %v", f.Name, op)
	return -1
}

// TestVerifyRejectsCorruption: seeded corruptions of valid bytecode
// are each rejected with a positioned error naming the function and
// the offending pc.
func TestVerifyRejectsCorruption(t *testing.T) {
	mainOf := func(bc *bytecode.Prog) *bytecode.Func {
		return bc.Funcs[bc.ByName["main"]]
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, bc *bytecode.Prog)
		want    string
	}{
		{"jump-out-of-code", func(t *testing.T, bc *bytecode.Prog) {
			// Any jump opcode: coalescing may fuse a do-while's latch
			// into a single jump.if, leaving no plain jump.
			f := mainOf(bc)
			for pc := range f.Code {
				switch f.Code[pc].Op {
				case bytecode.OpJump, bytecode.OpJumpIf, bytecode.OpJumpIfNot:
					f.Code[pc].Aux = int32(len(f.Code) + 7)
					return
				}
			}
			t.Fatal("@main has no jump")
		}, "jump target"},
		{"dst-outside-frame", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			f.Code[findOp(t, f, bytecode.OpInsertSet)].Dst = int32(f.FrameLen)
		}, "outside frame"},
		{"kind-mismatch-insert", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			f.Code[findOp(t, f, bytecode.OpInsertSet)].Op = bytecode.OpInsertMap
		}, "holds"},
		{"kind-mismatch-seq", func(t *testing.T, bc *bytecode.Prog) {
			// Point the seq insert at the set register: insert.seq.end
			// on a KSet value.
			f := mainOf(bc)
			setReg := f.Code[findOp(t, f, bytecode.OpInsertSet)].A
			f.Code[findOp(t, f, bytecode.OpInsertSeqEnd)].A = setReg
		}, "holds"},
		{"read-uninitialized", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			f.FrameLen++ // a register nothing ever writes
			in := &f.Code[findOp(t, f, bytecode.OpAddI)]
			in.A = int32(f.FrameLen - 1)
		}, "before it is written"},
		{"alloc-site-out-of-table", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			f.Code[findOp(t, f, bytecode.OpNewColl)].Aux = int32(len(bc.AllocSites))
		}, "allocation site"},
		{"callee-out-of-table", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			f.Code[findOp(t, f, bytecode.OpCall)].Aux = int32(len(bc.Funcs))
		}, "function table"},
		{"call-arity-mismatch", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			aux2 := f.Code[findOp(t, f, bytecode.OpCall)].Aux2
			f.ArgLists[aux2] = append(f.ArgLists[aux2], f.ArgLists[aux2][0])
		}, "passes 2 arguments, callee takes 1"},
		{"foreach-body-inverted", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			in := &f.Code[findOp(t, f, bytecode.OpForEach)]
			in.Aux2 = in.Aux - 1
		}, "body segment"},
		{"truncated-code", func(t *testing.T, bc *bytecode.Prog) {
			f := mainOf(bc)
			f.Code = f.Code[:0]
		}, "empty code"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bc := compileSrc(t, corruptSrc)
			if err := bytecode.Verify(bc); err != nil {
				t.Fatalf("pristine program rejected: %v", err)
			}
			c.corrupt(t, bc)
			err := bytecode.Verify(bc)
			if err == nil {
				t.Fatal("corrupted program accepted")
			}
			var ve *bytecode.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *VerifyError", err)
			}
			if ve.Fn != "main" {
				t.Errorf("error names @%s, want @main", ve.Fn)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), "@main") {
				t.Errorf("error %q is not positioned", err)
			}
		})
	}
}

// TestVerifyUninitAcrossBranch: a register written on only one branch
// is not definitely initialized at the join.
func TestVerifyUninitAcrossBranch(t *testing.T) {
	// Hand-build: the compiler cannot produce this shape (the IR
	// verifier rejects it first), which is exactly why the bytecode
	// verifier must.
	f := &bytecode.Func{
		Name:     "crafted",
		NumSlots: 3,
		FrameLen: 3,
		ParamRegs: []int32{
			0, // reg 0: the condition parameter
		},
		Code: []bytecode.Instr{
			{Op: bytecode.OpJumpIfNot, Aux: 2, A: 0, B: -1, C: -1},
			{Op: bytecode.OpMove, Dst: 1, A: 0, B: -1, C: -1},
			{Op: bytecode.OpReturn, A: 1, B: -1, C: -1},
		},
	}
	p := &bytecode.Prog{Funcs: []*bytecode.Func{f}, ByName: map[string]int{"crafted": 0}}
	err := bytecode.Verify(p)
	if err == nil || !strings.Contains(err.Error(), "before it is written") {
		t.Fatalf("err = %v, want definite-init failure on reg 1", err)
	}
}

// TestVerifyForEachBindings: the key/value registers are defined in
// the body but not after the loop (a zero-element iteration never
// writes them), and the verifier models that asymmetry.
func TestVerifyForEachBindings(t *testing.T) {
	src := `fn u64 @main(%s: Set<u64>): exported
  %acc := new Seq<u64>()
  for [%k, %v] in %s:
    %a0 := phi(%acc, %a1)
    %a1 := insert(%a0, end, %k)
  %aF := phi(%a0)
  %z := size(%aF)
  ret %z
`
	bc := compileSrc(t, src)
	if err := bytecode.Verify(bc); err != nil {
		t.Fatalf("valid for-each rejected: %v", err)
	}
	// Corrupt: read the key register on the continuation path.
	f := bc.Funcs[bc.ByName["main"]]
	fe := &f.Code[findOp(t, f, bytecode.OpForEach)]
	kReg := fe.Dst
	cont := int(fe.Aux2)
	f.Code[cont] = bytecode.Instr{
		Op: bytecode.OpMove, Dst: f.Code[cont].Dst,
		A: kReg, B: -1, C: -1,
	}
	// Keep the program shape legal (cont held a move already or a later
	// op whose Dst we reuse); what matters is the read of kReg after
	// the loop.
	err := bytecode.Verify(bc)
	if err == nil || !strings.Contains(err.Error(), "before it is written") {
		t.Fatalf("err = %v, want uninit read of the key register after the loop", err)
	}
}

// TestVerifyParity: programs valid for the IR verifier always pass the
// bytecode verifier after compilation (spot checks over representative
// shapes).
func TestVerifyParity(t *testing.T) {
	srcs := map[string]string{
		"corrupt-base": corruptSrc,
		"nested": `fn u64 @main(%a: u64): exported
  %m := new Map<u64, Set<u64>>()
  %m1 := insert(%m, %a)
  %m2 := insert(%m1[%a], 7)
  %n := size(%m2[%a])
  ret %n
`,
		"tuple-field": `fn u64 @main(%a: u64): exported
  %t := tuple(%a, 3)
  %x := field(%t, 1)
  ret %x
`,
		"enum-ops": `fn u64 @main(%a: u64): exported
  %e := new Enum<u64>()
  (%e1, %i) := call @add(%e, %a)
  %v := call @dec(%e1, %i)
  %j := call @enc(%e1, %v)
  ret %j
`,
	}
	for name, src := range srcs {
		if err := bytecode.Verify(compileSrc(t, src)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
