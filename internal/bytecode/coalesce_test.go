package bytecode_test

import (
	"fmt"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/parser"
	"memoir/internal/vm"
)

// coalesceRun compiles src, checks that the bytecode verifies and that
// the VM returns and emits exactly what the interpreter does for every
// argument tuple, and returns @main's compiled function.
func coalesceRun(t *testing.T, src string, argSets ...[]uint64) *bytecode.Func {
	t.Helper()
	bc := compileSrc(t, src)
	if err := bytecode.Verify(bc); err != nil {
		t.Fatalf("verify: %v\n%s", err, bytecode.Disasm(bc))
	}
	for _, raw := range argSets {
		args := make([]interp.Val, len(raw))
		for i, a := range raw {
			args[i] = interp.IntV(a)
		}
		opts := interp.DefaultOptions()
		opts.RecordOutput = true
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ip := interp.New(prog, opts)
		want, err := ip.Run("main", args...)
		if err != nil {
			t.Fatalf("interp %v: %v", raw, err)
		}
		m := vm.New(bc, opts)
		got, err := m.Run("main", args...)
		if err != nil {
			t.Fatalf("vm %v: %v", raw, err)
		}
		if g, w := fmt.Sprint(got, m.Output), fmt.Sprint(want, ip.Output); g != w {
			t.Errorf("args %v: vm returned %s, interpreter %s\n%s", raw, g, w, bytecode.Disasm(bc))
		}
	}
	return bc.Funcs[bc.ByName["main"]]
}

// moveKinds counts f's moves between two IR-value registers, from a
// constant, and into latch scratch.
func moveKinds(f *bytecode.Func) (values, fromConst, toScratch int) {
	consts := int32(f.NumSlots + len(f.Consts))
	for _, in := range f.Code {
		if in.Op != bytecode.OpMove {
			continue
		}
		switch {
		case in.Dst >= consts:
			toScratch++
		case in.A >= int32(f.NumSlots) && in.A < consts:
			fromConst++
		case in.A < int32(f.NumSlots) && in.Dst < int32(f.NumSlots):
			values++
		}
	}
	return
}

func hasOp(f *bytecode.Func, op bytecode.Op) bool {
	for _, in := range f.Code {
		if in.Op == op {
			return true
		}
	}
	return false
}

// TestCoalesceLiveAcrossRedefinition: %i is still read after %i1 is
// computed, so the two interfere and the latch keeps its move (and the
// exit its copy), while %acc and %acc1 share a register.
func TestCoalesceLiveAcrossRedefinition(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64): exported
  do:
    %i := phi(0, %i1)
    %acc := phi(0, %acc1)
    %i1 := add(%i, 1)
    %acc1 := add(%acc, %i)
    %more := lt(%i1, %n)
  while %more
  %r := phi(%acc)
  ret %r
`, []uint64{1}, []uint64{5})
	if values, _, _ := moveKinds(f); values != 2 {
		t.Errorf("%d moves between values, want 2 (latch and exit copy of %%i)", values)
	}
	if hasOp(f, bytecode.OpJumpIf) {
		t.Error("latch with a move left was fused into jump.if")
	}
}

// TestCoalesceLatchSwap: a, b = b, a is a cycle of parallel copies, so
// the latch still stages through scratch registers.
func TestCoalesceLatchSwap(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64): exported
  do:
    %a := phi(1, %b)
    %b := phi(2, %a)
    %i := phi(0, %i1)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %ra := phi(%a)
  %rb := phi(%b)
  emit(%ra)
  emit(%rb)
  ret %ra
`, []uint64{1}, []uint64{2}, []uint64{3})
	if _, _, scratch := moveKinds(f); scratch == 0 {
		t.Error("swap latch no longer stages through scratch")
	}
}

// TestCoalesceForEachBindings: a header phi whose latch argument is the
// key (or value) must keep its move, because the for-each overwrites
// the key and value on the latch edge, after the body's latch moves,
// while the phi is still live into the next iteration.
func TestCoalesceForEachBindings(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64): exported
  %s := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %sq := mul(%i, %i)
    %s1 := insert(%s0, end, %sq)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %sF := phi(%s0)
  for [%k, %v] in %sF:
    %acc := phi(0, %acc3)
    %lk := phi(7, %k)
    %lv := phi(9, %v)
    %acc1 := mul(%acc, 3)
    %acc2 := add(%acc1, %lk)
    %acc3 := add(%acc2, %lv)
  %r := phi(%acc)
  %rk := phi(%lk)
  %rv := phi(%lv)
  emit(%rk)
  emit(%rv)
  ret %r
`, []uint64{1}, []uint64{4})
	if values, _, _ := moveKinds(f); values < 2 {
		t.Errorf("%d moves between values, want the key and value latch moves kept", values)
	}
}

// TestCoalesceForEachBackEdge: the end of a for-each body flows back to
// the next iteration, so %x, read at the top of every iteration, is
// live where %q is computed at the bottom and cannot share the register
// of %p and %q, although %p starts as a copy of %x. The body's end also
// flows past the loop, so %y, read only after it, cannot share the
// register of %u and %u1.
func TestCoalesceForEachBackEdge(t *testing.T) {
	coalesceRun(t, `fn u64 @main(%n: u64): exported
  %s := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %s1 := insert(%s0, end, %i)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %sF := phi(%s0)
  %x := add(%n, 100)
  %y := add(%n, 200)
  for [%k, %v] in %sF:
    %p := phi(%x, %q)
    %u := phi(%y, %u1)
    %t := add(%p, %x)
    emit(%t)
    %q := add(%v, 1)
    %u1 := add(%v, 2)
  %r := phi(%p)
  %ru := phi(%u)
  emit(%ru)
  emit(%y)
  ret %r
`, []uint64{1}, []uint64{3})
}

// TestCoalesceCopyOfLiveSource: a move does not make its destination
// interfere with its source, so the exit phi %r shares %i's register
// although %i is read again after the copy.
func TestCoalesceCopyOfLiveSource(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64): exported
  do:
    %i := phi(0, %i1)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %r := phi(%i)
  %z := add(%r, %i)
  ret %z
`, []uint64{1}, []uint64{4})
	if values, _, _ := moveKinds(f); values != 0 {
		t.Errorf("%d moves between values, want 0", values)
	}
}

// TestCoalesceDoWhileExit: the exit repeats the latch copies, so the
// exit phis see the final state; with every latch move coalesced the
// latch becomes one jump.if back to the loop head.
func TestCoalesceDoWhileExit(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64): exported
  %s := new Set<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %s1 := insert(%s0, %i)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %iF := phi(%i)
  %sF := phi(%s0)
  %z := size(%sF)
  %r := add(%iF, %z)
  ret %r
`, []uint64{1}, []uint64{6})
	values, _, _ := moveKinds(f)
	if values != 0 {
		t.Errorf("%d moves between values, want 0", values)
	}
	if hasOp(f, bytecode.OpJump) || !hasOp(f, bytecode.OpJumpIf) {
		t.Errorf("latch not fused into one jump.if:\n%s", disasmFunc(f))
	}
	for pc, in := range f.Code {
		if in.Op == bytecode.OpJumpIf && f.Code[in.Aux].Op != bytecode.OpStep {
			t.Errorf("jump.if at %d targets %v, want the loop's step", pc, f.Code[in.Aux].Op)
		}
	}
}

// TestCoalesceParameter: a parameter that only seeds a loop phi shares
// its register with the phi; parameters keep distinct registers.
func TestCoalesceParameter(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64, %s: u64, %unused: u64): exported
  do:
    %acc := phi(%s, %acc1)
    %i := phi(0, %i1)
    %acc1 := add(%acc, %i)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %r := phi(%acc)
  ret %r
`, []uint64{1, 10, 3}, []uint64{5, 10, 3})
	if values, _, _ := moveKinds(f); values != 0 {
		t.Errorf("%d moves between values, want 0", values)
	}
	seen := map[int32]bool{}
	for _, r := range f.ParamRegs {
		if seen[r] {
			t.Errorf("parameters share register r%d", r)
		}
		seen[r] = true
	}
	acc := int32(-1)
	for _, in := range f.Code {
		if in.Op == bytecode.OpAddI && acc < 0 {
			acc = in.Dst
		}
	}
	if acc != f.ParamRegs[1] {
		t.Errorf("accumulator in r%d, want the parameter's r%d", acc, f.ParamRegs[1])
	}
}

// TestCoalesceParametersApart: parameters are all written at entry, so
// two of them never share a register, even when an if-exit phi joins
// them and nothing else keeps them apart.
func TestCoalesceParametersApart(t *testing.T) {
	coalesceRun(t, `fn u64 @main(%c: u64, %a: u64, %b: u64): exported
  %t := lt(%c, 1)
  if %t:
    %z := add(%c, 0)
  else:
    %y := add(%c, 1)
  %x := phi(%a, %b)
  ret %x
`, []uint64{0, 10, 20}, []uint64{5, 10, 20})
}

// TestCoalesceConstantSource: constant-pool registers never coalesce,
// so a phi seeded by a constant keeps its move.
func TestCoalesceConstantSource(t *testing.T) {
	f := coalesceRun(t, `fn u64 @main(%n: u64): exported
  do:
    %i := phi(0, %i1)
    %i1 := add(%i, 1)
    %more := lt(%i1, %n)
  while %more
  %r := phi(%i)
  ret %r
`, []uint64{3})
	if _, fromConst, _ := moveKinds(f); fromConst != 1 {
		t.Errorf("%d moves from a constant, want 1", fromConst)
	}
}

// TestCoalesceSuiteNoSelfMove: across every suite program and variant,
// raw and after ADE, no self-move and no jump to the next instruction
// survives, and moves between values are a small residue.
func TestCoalesceSuiteNoSelfMove(t *testing.T) {
	total, values := 0, 0
	for _, s := range bench.All() {
		for _, variant := range append([]string{""}, s.Variants...) {
			for _, ade := range []bool{false, true} {
				prog := s.Build(variant)
				if ade {
					if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
						t.Fatal(err)
					}
				}
				bc, err := bytecode.Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range bc.Funcs {
					for pc, in := range f.Code {
						switch {
						case in.Op == bytecode.OpMove && in.Dst == in.A:
							t.Errorf("%s/%s ade=%v @%s+%d: self-move r%d", s.Abbr, variant, ade, f.Name, pc, in.Dst)
						case in.Op == bytecode.OpJump && int(in.Aux) == pc+1:
							t.Errorf("%s/%s ade=%v @%s+%d: jump to the next instruction", s.Abbr, variant, ade, f.Name, pc)
						}
					}
					v, _, _ := moveKinds(f)
					values += v
					total += len(f.Code)
				}
			}
		}
	}
	if values*10 > total {
		t.Errorf("%d of %d instructions are moves between values", values, total)
	}
}

func disasmFunc(f *bytecode.Func) string {
	return bytecode.Disasm(&bytecode.Prog{Funcs: []*bytecode.Func{f}, ByName: map[string]int{f.Name: 0}})
}
