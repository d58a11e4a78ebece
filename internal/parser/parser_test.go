package parser

import (
	"testing"

	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

const histSrc = `
fn u64 @count(%input: Seq<u64>): exported
  %hist := new Map<u64,u32>()
  for [%i, %val] in %input:
    %hist0 := phi(%hist, %hist3)
    %cond := has(%hist0, %val)
    if %cond:
      %freq := read(%hist0, %val)
    else:
      %hist1 := insert(%hist0, %val)
    %freq0 := phi(%freq, 0)
    %hist2 := phi(%hist0, %hist1)
    %freq1 := add(%freq0, 1)
    %hist3 := write(%hist2, %val, %freq1)
  %histF := phi(%hist0)
  %n := size(%histF)
  emit(%n)
  ret %n
`

func TestParseHistogram(t *testing.T) {
	prog, err := Parse(histSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("verify: %v\n%s", err, ir.Print(prog))
	}
	fn := prog.Func("count")
	if fn == nil || !fn.Exported || len(fn.Params) != 1 {
		t.Fatal("function header parsed wrong")
	}
	ip := interp.New(prog, interp.DefaultOptions())
	seq := ip.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
	for _, v := range []uint64{5, 7, 5, 5, 11} {
		seq.Append(interp.IntV(v))
	}
	ret, err := ip.Run("count", interp.CollV(seq))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 3 {
		t.Fatalf("distinct = %d, want 3", ret.I)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"undefined value": `
fn void @f():
  %x := add(%ghost, 1)
  ret
`,
		"phi outside structure": `
fn void @f():
  %x := phi(1, 2)
  ret
`,
		"do without while": `
fn void @f():
  do:
    %x := add(1, 2)
  ret
`,
		"unknown instruction": `
fn void @f():
  frobnicate(%x)
  ret
`,
		"unknown type": `
fn void @f(%x: Wibble<u64>):
  ret
`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse accepted invalid program", name)
		}
	}
}

func TestParsePragma(t *testing.T) {
	src := `
fn void @f():
  #pragma ade enumerate noshare select(SparseBitSet) inner( noenumerate )
  %s := new Set<u64>()
  %s1 := insert(%s, 42)
  ret
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	allocs := ir.Allocations(prog.Func("f"))
	if len(allocs) != 1 || allocs[0].Dir == nil {
		t.Fatal("directive not attached")
	}
	d := allocs[0].Dir
	if !d.Enumerate || !d.NoShare || d.Select != collections.ImplSparseBitSet {
		t.Fatalf("directive fields wrong: %+v", d)
	}
	if d.Inner == nil || !d.Inner.NoEnumerate {
		t.Fatal("inner directive wrong")
	}
}

func TestParseShareGroupAndEnumOps(t *testing.T) {
	src := `
fn u64 @f(%xs: Seq<u64>):
  #pragma ade share group("g1")
  %a := new Set<u64>()
  %e := new Enum<u64>()
  (%e1, %id) := call @add(%e, 7)
  %v := call @dec(%e1, %id)
  %id2 := call @enc(%e1, %v)
  %g := enumglobal @ade9
  %a1 := insert(%a, %v)
  %n := size(%a1)
  ret %n
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("verify: %v", err)
	}
	allocs := ir.Allocations(prog.Func("f"))
	if allocs[0].Dir == nil || allocs[0].Dir.ShareGroup != "g1" {
		t.Fatal("share group lost")
	}
	ip := interp.New(prog, interp.DefaultOptions())
	seq := ip.NewColl(ir.SeqOf(ir.TU64))
	ret, err := ip.Run("f", interp.CollV(seq))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 1 {
		t.Fatalf("ret = %d", ret.I)
	}
}
