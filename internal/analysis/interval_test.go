package analysis

import (
	"testing"

	"memoir/internal/ir"
)

func iv(lo, hi uint64) Interval { return Interval{lo, hi} }

// --- Transfer functions ---

func TestBinIvTransfers(t *testing.T) {
	u64 := ir.TU64
	i64 := ir.TI64
	cases := []struct {
		name string
		kind ir.BinKind
		t    ir.Type
		a, b Interval
		want Interval
	}{
		{"add", ir.BinAdd, u64, iv(1, 3), iv(10, 20), iv(11, 23)},
		{"add-wrap", ir.BinAdd, u64, iv(0, maxU64), iv(1, 1), TopInterval()},
		{"sub", ir.BinSub, u64, iv(10, 20), iv(1, 3), iv(7, 19)},
		{"sub-underflow", ir.BinSub, u64, iv(0, 5), iv(1, 1), TopInterval()},
		{"mul", ir.BinMul, u64, iv(2, 3), iv(4, 5), iv(8, 15)},
		{"mul-overflow", ir.BinMul, u64, iv(0, 1<<40), iv(0, 1<<40), TopInterval()},
		{"div", ir.BinDiv, u64, iv(10, 20), iv(2, 5), iv(2, 10)},
		{"div-maybe-zero", ir.BinDiv, u64, iv(10, 20), iv(0, 5), iv(2, 20)},
		{"div-signed-top", ir.BinDiv, i64, iv(0, maxU64), iv(2, 2), TopInterval()},
		{"rem-const", ir.BinRem, u64, iv(0, maxU64), iv(4, 4), iv(0, 3)},
		{"rem-identity", ir.BinRem, u64, iv(0, 3), iv(8, 8), iv(0, 3)},
		{"rem-range", ir.BinRem, u64, iv(0, maxU64), iv(2, 16), iv(0, 15)},
		{"and", ir.BinAnd, u64, iv(0, maxU64), iv(0, 255), iv(0, 255)},
		{"or", ir.BinOr, u64, iv(1, 4), iv(2, 3), iv(2, 7)},
		{"xor", ir.BinXor, u64, iv(0, 4), iv(0, 3), iv(0, 7)},
		{"shl", ir.BinShl, u64, iv(1, 3), iv(2, 2), iv(4, 12)},
		{"shl-overflow", ir.BinShl, u64, iv(0, maxU64), iv(1, 1), TopInterval()},
		{"shr", ir.BinShr, u64, iv(16, 64), iv(2, 2), iv(4, 16)},
		{"min", ir.BinMin, u64, iv(3, 10), iv(5, 7), iv(3, 7)},
		{"max", ir.BinMax, u64, iv(3, 10), iv(5, 7), iv(5, 10)},
		{"min-signed-top", ir.BinMin, i64, iv(0, maxU64), iv(5, 7), TopInterval()},
	}
	for _, c := range cases {
		if got := binIv(c.kind, c.t, c.a, c.b); got != c.want {
			t.Errorf("%s: binIv(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestBinIvSoundnessVsConcrete(t *testing.T) {
	// Every abstract result must contain the concrete result of every
	// pair drawn from the operand intervals (small exhaustive check).
	kinds := []ir.BinKind{ir.BinAdd, ir.BinSub, ir.BinMul, ir.BinDiv, ir.BinRem,
		ir.BinAnd, ir.BinOr, ir.BinXor, ir.BinShl, ir.BinShr, ir.BinMin, ir.BinMax}
	ivs := []Interval{iv(0, 0), iv(0, 3), iv(1, 4), iv(2, 2), iv(5, 9), iv(62, 65)}
	conc := func(k ir.BinKind, a, b uint64) (uint64, bool) {
		switch k {
		case ir.BinAdd:
			return a + b, true
		case ir.BinSub:
			return a - b, true
		case ir.BinMul:
			return a * b, true
		case ir.BinDiv:
			if b == 0 {
				return 0, false // runtime error, not a produced value
			}
			return a / b, true
		case ir.BinRem:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case ir.BinAnd:
			return a & b, true
		case ir.BinOr:
			return a | b, true
		case ir.BinXor:
			return a ^ b, true
		case ir.BinShl:
			return a << (b & 63), true
		case ir.BinShr:
			return a >> (b & 63), true
		case ir.BinMin:
			if a < b {
				return a, true
			}
			return b, true
		case ir.BinMax:
			if a > b {
				return a, true
			}
			return b, true
		}
		return 0, false
	}
	for _, k := range kinds {
		for _, ai := range ivs {
			for _, bi := range ivs {
				abs := binIv(k, ir.TU64, ai, bi)
				for a := ai.Lo; a <= ai.Hi; a++ {
					for b := bi.Lo; b <= bi.Hi; b++ {
						if c, ok := conc(k, a, b); ok && !abs.Contains(c) {
							t.Fatalf("%v: %d op %d = %d outside binIv(%v,%v) = %v",
								k, a, b, c, ai, bi, abs)
						}
					}
				}
			}
		}
	}
}

func TestCmpIvFold(t *testing.T) {
	u64 := ir.TU64
	cases := []struct {
		kind ir.CmpKind
		a, b Interval
		want Interval
	}{
		{ir.CmpLt, iv(0, 4), iv(5, 9), iv(1, 1)},
		{ir.CmpLt, iv(9, 12), iv(2, 9), iv(0, 0)},
		{ir.CmpLt, iv(0, 9), iv(5, 9), iv(0, 1)},
		{ir.CmpLe, iv(0, 5), iv(5, 9), iv(1, 1)},
		{ir.CmpGe, iv(9, 12), iv(2, 9), iv(1, 1)},
		{ir.CmpEq, iv(3, 3), iv(3, 3), iv(1, 1)},
		{ir.CmpEq, iv(0, 2), iv(5, 9), iv(0, 0)},
		{ir.CmpNe, iv(0, 2), iv(5, 9), iv(1, 1)},
		{ir.CmpNe, iv(3, 3), iv(3, 3), iv(0, 0)},
		{ir.CmpEq, iv(0, 5), iv(3, 8), iv(0, 1)},
	}
	for _, c := range cases {
		if got := cmpIv(c.kind, u64, c.a, c.b); got != c.want {
			t.Errorf("cmpIv(%v, %v, %v) = %v, want %v", c.kind, c.a, c.b, got, c.want)
		}
	}
	// Signed operands with a possible sign bit: no ordered folding.
	if got := cmpIv(ir.CmpLt, ir.TI64, iv(0, maxU64), iv(5, 5)); got != iv(0, 1) {
		t.Errorf("signed lt folded to %v", got)
	}
}

func TestCastIvMask(t *testing.T) {
	if got := castIv(ir.TU8, iv(0, 1000)); got != iv(0, 255) {
		t.Errorf("cast<u8> of [0,1000] = %v", got)
	}
	if got := castIv(ir.TU8, iv(3, 200)); got != iv(3, 200) {
		t.Errorf("cast<u8> of fitting range = %v", got)
	}
	if got := castIv(ir.TU64, iv(3, 200)); got != iv(3, 200) {
		t.Errorf("cast<u64> = %v", got)
	}
}

// --- Whole-function facts ---

func instrByResult(t *testing.T, fn *ir.Func, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	ir.WalkInstrs(fn, func(in *ir.Instr) {
		for _, r := range in.Results {
			if r.Name == name {
				found = in
			}
		}
	})
	if found == nil {
		t.Fatalf("no instruction defining %%%s", name)
	}
	return found
}

func allocByResult(t *testing.T, fn *ir.Func, name string) *ir.Instr {
	t.Helper()
	in := instrByResult(t, fn, name)
	if in.Op != ir.OpNew {
		t.Fatalf("%%%s is not an allocation", name)
	}
	return in
}

func intervalsMain(t *testing.T, src string) (*ir.Func, *FuncIntervals) {
	t.Helper()
	p := mustParse(t, src)
	fn := mainFn(t, p)
	return fn, IntervalsOf(p).Func(fn)
}

func TestIntervalCountedLoop(t *testing.T) {
	// i = phi(0, i+1) bounded by i+1 < 10: the induction variable is
	// provably in [0, 9] inside the body, and the exit value of i1 is
	// exactly 10.
	src := `fn u64 @main(): exported
  %s := new Set<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %s1 := insert(%s0, %i)
    %i1 := add(%i, 1)
    %m := lt(%i1, 10)
  while %m
  %iF := phi(%i1)
  %sF := phi(%s0)
  %r := add(%iF, 0)
  ret %r
`
	fn, fi := intervalsMain(t, src)
	byName := valuesByName(fn)

	ins := instrByResult(t, fn, "s1")
	if got := fi.ValueAt(ins, byName["i"]); got != iv(0, 9) {
		t.Errorf("loop body %%i = %v, want [0,9]", got)
	}
	ret := instrByResult(t, fn, "r")
	if got := fi.ValueAt(ret, byName["iF"]); got != iv(10, 10) {
		t.Errorf("exit %%iF = %v, want [10]", got)
	}

	// Site summary: every inserted key is the bounded induction var.
	s := fi.Site(allocByResult(t, fn, "s"))
	if s == nil {
		t.Fatal("no site summary for the set allocation")
	}
	if !s.Exact || s.AddPoints != 1 || s.Keys != iv(0, 9) {
		t.Errorf("site = {keys %v, addpoints %d, exact %v}, want {[0,9], 1, true}",
			s.Keys, s.AddPoints, s.Exact)
	}
}

func TestIntervalRemKeyedSite(t *testing.T) {
	// Keys are x % 4 of an unbounded loop: still provably [0, 3].
	src := `fn u64 @main(%n: u64): exported
  %s := new Set<u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %k := rem(%i, 4)
    %s1 := insert(%s0, %k)
    %i1 := add(%i, 1)
    %m := lt(%i1, %n)
  while %m
  %sF := phi(%s0)
  %z := size(%sF)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	s := fi.Site(allocByResult(t, fn, "s"))
	if s == nil || !s.Exact || s.Keys != iv(0, 3) {
		t.Fatalf("site = %+v, want exact keys [0,3]", s)
	}
}

func TestIntervalBranchRefinement(t *testing.T) {
	src := `fn u64 @main(%a: u64): exported
  %c := lt(%a, 5)
  if %c:
    %x := add(%a, 1)
  else:
    %y := add(%a, 0)
  %z := phi(%x, %y)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	byName := valuesByName(fn)
	if got := fi.ValueAt(instrByResult(t, fn, "x"), byName["a"]); got != iv(0, 4) {
		t.Errorf("then-branch %%a = %v, want [0,4]", got)
	}
	if got := fi.ValueAt(instrByResult(t, fn, "x"), byName["x"]); got != iv(1, 5) {
		t.Errorf("%%x = %v, want [1,5]", got)
	}
	if got := fi.ValueAt(instrByResult(t, fn, "y"), byName["a"]); got != iv(5, maxU64) {
		t.Errorf("else-branch %%a = %v, want [5,+inf)", got)
	}
}

// TestIntervalFloatCompareStaysTop: an ordered float comparison says
// nothing about the operands' bit patterns (-1.0 < +0.0 holds, yet
// +0.0 is the pattern 0), so refinement leaves float operands at top.
func TestIntervalFloatCompareStaysTop(t *testing.T) {
	src := `fn u64 @main(%a: f64, %b: f64): exported
  %c := lt(%a, %b)
  if %c:
    %x := add(%a, %b)
    %r := rem(%a, %b)
  ret 0
`
	fn, fi := intervalsMain(t, src)
	byName := valuesByName(fn)
	x, r := instrByResult(t, fn, "x"), instrByResult(t, fn, "r")
	for _, name := range []string{"a", "b"} {
		if got := fi.ValueAt(x, byName[name]); !got.IsTop() {
			t.Errorf("then-branch %%%s = %v, want top", name, got)
		}
	}
	if got := fi.ValueAt(r, byName["r"]); !got.IsTop() {
		t.Errorf("float rem %%r = %v, want top", got)
	}
}

func TestIntervalConstantCondition(t *testing.T) {
	src := `fn u64 @main(%a: u64): exported
  %c := lt(2, 1)
  if %c:
    %x := add(%a, 1)
  else:
    %y := add(%a, 2)
  %z := phi(%x, %y)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	var constCond *CondFact
	for i := range fi.Conds() {
		cf := &fi.Conds()[i]
		if c, ok := cf.Iv.Const(); ok && c == 0 {
			constCond = cf
		}
	}
	if constCond == nil {
		t.Fatalf("no constant-false condition fact in %v", fi.Conds())
	}
	if constCond.Loop {
		t.Errorf("if condition classified as loop")
	}
	// The then branch is dead: %x's instruction keeps no recorded facts.
	if got := fi.ValueAt(instrByResult(t, fn, "x"), valuesByName(fn)["a"]); !got.IsTop() {
		t.Errorf("dead branch recorded %%a = %v", got)
	}
}

func TestIntervalSiteEscapes(t *testing.T) {
	// A site passed to a call cannot be summarized exactly.
	src := `fn void @helper(%s: Set<u64>):
  %n := size(%s)
  emit(%n)
fn u64 @main(%a: u64): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 3)
  call @helper(%s1)
  %z := size(%s1)
  ret %z
`
	p := mustParse(t, src)
	fn := mainFn(t, p)
	fi := IntervalsOf(p).Func(fn)
	s := fi.Site(allocByResult(t, fn, "s"))
	if s == nil || s.Exact {
		t.Fatalf("escaped site summarized as exact: %+v", s)
	}
}

func TestIntervalInterprocReturn(t *testing.T) {
	src := `fn u64 @ten():
  ret 10
fn u64 @main(%a: u64): exported
  %x := call @ten()
  %r := add(%x, 0)
  ret %r
`
	p := mustParse(t, src)
	fn := mainFn(t, p)
	fi := IntervalsOf(p).Func(fn)
	if got := fi.ValueAt(instrByResult(t, fn, "r"), valuesByName(fn)["x"]); got != iv(10, 10) {
		t.Errorf("call @ten() = %v, want [10]", got)
	}
}

func TestIntervalForEachBinding(t *testing.T) {
	// Keys of %m are provably [0,3]; iterating %m must bind the key in
	// that range, which then bounds the second site transitively.
	src := `fn u64 @main(%n: u64): exported
  %m := new Map<u64, u64>()
  do:
    %i := phi(0, %i1)
    %m0 := phi(%m, %m1)
    %k := rem(%i, 4)
    %m1 := insert(%m0, %k)
    %i1 := add(%i, 1)
    %c := lt(%i1, %n)
  while %c
  %mF := phi(%m0)
  %acc := new Set<u64>()
  for [%key, %val] in %mF:
    %a0 := phi(%acc, %a1)
    %a1 := insert(%a0, %key)
  %aF := phi(%a0)
  %z := size(%aF)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	var fe *ir.ForEach
	ir.WalkNodes(fn.Body, func(n ir.Node) {
		if l, ok := n.(*ir.ForEach); ok {
			fe = l
		}
	})
	if fe == nil {
		t.Fatal("no for-each loop")
	}
	if got := fi.ValueAt(instrByResult(t, fn, "a1"), fe.Key); got != iv(0, 3) {
		t.Errorf("for-each key binding = %v, want [0,3]", got)
	}
	if key, val := fi.LoopBind(fe); key != iv(0, 3) || val != iv(0, 0) {
		t.Errorf("LoopBind = %v/%v, want [0,3]/[0]", key, val)
	}
	s := fi.Site(allocByResult(t, fn, "acc"))
	if s == nil || !s.Exact || s.Keys != iv(0, 3) {
		t.Fatalf("transitive site = %+v, want exact keys [0,3]", s)
	}
}

func TestIntervalUnionPropagation(t *testing.T) {
	src := `fn u64 @main(%a: u64): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 3)
  %t := new Set<u64>()
  %t1 := insert(%t, 7)
  %u := union(%t1, %s1)
  %z := size(%u)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	ts := fi.Site(allocByResult(t, fn, "t"))
	if ts == nil || !ts.Exact || ts.Keys != iv(3, 7) || ts.AddPoints != 2 {
		t.Fatalf("union dst site = %+v, want exact keys [3,7] addpoints 2", ts)
	}
	ss := fi.Site(allocByResult(t, fn, "s"))
	if ss == nil || !ss.Exact || ss.Keys != iv(3, 3) {
		t.Fatalf("union src site = %+v, want exact keys [3,3]", ss)
	}
}

func TestIntervalMapWriteElems(t *testing.T) {
	src := `fn u64 @main(%a: u64): exported
  %m := new Map<u64, u64>()
  %m1 := insert(%m, 2)
  %v := rem(%a, 16)
  %m2 := write(%m1, 2, %v)
  %z := size(%m2)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	s := fi.Site(allocByResult(t, fn, "m"))
	if s == nil || !s.Exact {
		t.Fatalf("site = %+v, want exact", s)
	}
	if s.Keys != iv(2, 2) {
		t.Errorf("keys = %v, want [2]", s.Keys)
	}
	// Elems: zero element from the insert joined with the written [0,15].
	if s.Elems != iv(0, 15) {
		t.Errorf("elems = %v, want [0,15]", s.Elems)
	}
}

func TestIntervalOriginOf(t *testing.T) {
	src := `fn u64 @main(%a: u64): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 3)
  %z := size(%s1)
  ret %z
`
	fn, fi := intervalsMain(t, src)
	byName := valuesByName(fn)
	alloc := allocByResult(t, fn, "s")
	if fi.OriginOf(byName["s1"]) != alloc {
		t.Errorf("OriginOf(%%s1) != alloc of %%s")
	}
	if fi.OriginOf(byName["a"]) != nil {
		t.Errorf("OriginOf(param) should be nil")
	}
}
