package core

import (
	"strings"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// buildHistogram constructs Listing 1 plus an output loop; it is the
// paper's running example for the transformation.
func buildHistogram() *ir.Program {
	b := ir.NewFunc("count", ir.TU64)
	b.Fn.Exported = true
	input := b.Param("input", ir.SeqOf(ir.TU64))
	hist := b.New(ir.MapOf(ir.TU64, ir.TU32), "hist")
	fe := b.ForEachBegin(ir.Op(input), "i", "val")
	hist0 := b.LoopPhi(fe, "hist0", hist)
	cond := b.Has(ir.Op(hist0), fe.Val, "cond")
	var freq, hist1 *ir.Value
	iff := b.If(cond, func() {
		freq = b.Read(ir.Op(hist0), fe.Val, "freq")
	}, func() {
		hist1 = b.Insert(ir.Op(hist0), fe.Val, "hist1")
	})
	freq0 := b.IfPhi(iff, "freq0", freq, ir.ConstInt(ir.TU32, 0))
	hist2 := b.IfPhi(iff, "hist2", hist0, hist1)
	freq1 := b.Bin(ir.BinAdd, freq0, ir.ConstInt(ir.TU32, 1), "freq1")
	hist3 := b.Write(ir.Op(hist2), fe.Val, freq1, "hist3")
	b.SetLatch(hist0, hist3)
	b.ForEachEnd(fe)
	histF := b.LoopExitPhi(fe, "histF", hist0)

	// Output loop: re-probe the histogram with its own iterated keys —
	// the ToDec∩ToEnc redundancy that makes enumeration profitable.
	fe2 := b.ForEachBegin(ir.Op(histF), "k", "f")
	got := b.Read(ir.Op(histF), fe2.Key, "got")
	g64 := b.Cast(got, ir.TU64, "g64")
	kv := b.Bin(ir.BinAdd, fe2.Key, g64, "kv")
	b.Emit(kv)
	b.ForEachEnd(fe2)
	n := b.Size(ir.Op(histF), "n")
	b.Ret(n)

	p := ir.NewProgram()
	p.Add(b.Fn)
	return p
}

// runCount executes @count over vals and returns (result, stats).
func runCount(t *testing.T, p *ir.Program, vals []uint64) (uint64, *interp.Stats) {
	t.Helper()
	ip := interp.New(p, interp.DefaultOptions())
	c := ip.NewColl(ir.SeqOf(ir.TU64))
	s := c.(*interp.RSeqArr)
	for _, v := range vals {
		s.Append(interp.IntV(v))
	}
	ret, err := ip.Run("count", interp.CollV(c))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(p))
	}
	ip.FinalizeMem()
	return ret.I, ip.Stats
}

var histVals = []uint64{900017, 42, 900017, 31337, 42, 7, 900017, 7, 123456789, 7}

// applyADE clones the program, applies ADE to the clone, verifies it,
// and returns (baseline, transformed, report).
func applyADE(t *testing.T, p *ir.Program, opts Options) (*ir.Program, *ir.Program, *Report) {
	t.Helper()
	base := ir.CloneProgram(p)
	rep, err := Apply(p, opts)
	if err != nil {
		t.Fatalf("ADE: %v", err)
	}
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify after ADE: %v\n%s\nreport:\n%s", err, ir.Print(p), rep)
	}
	return base, p, rep
}

func TestHistogramEndToEnd(t *testing.T) {
	base, ade, rep := applyADE(t, buildHistogram(), DefaultOptions())
	if len(rep.Classes) != 1 {
		t.Fatalf("classes = %d, want 1 (report:\n%s)", len(rep.Classes), rep)
	}

	retB, statsB := runCount(t, base, histVals)
	retA, statsA := runCount(t, ade, histVals)
	if retB != retA {
		t.Fatalf("results differ: %d vs %d", retB, retA)
	}
	if statsB.EmitSum != statsA.EmitSum || statsB.EmitCount != statsA.EmitCount {
		t.Fatalf("outputs differ: (%d,%d) vs (%d,%d)",
			statsB.EmitCount, statsB.EmitSum, statsA.EmitCount, statsA.EmitSum)
	}
	// The map must have become a BitMap.
	if statsA.Counts[collections.ImplBitMap][interp.OKHas] == 0 {
		t.Fatalf("transformed histogram did not probe a BitMap\n%s", ir.Print(ade))
	}
	if statsA.Counts[collections.ImplHashMap][interp.OKHas] != 0 {
		t.Fatal("transformed histogram still probes a HashMap")
	}
	// Sparse accesses fall, dense accesses rise (Table II shape).
	if statsA.Sparse >= statsB.Sparse || statsA.Dense <= statsB.Dense {
		t.Fatalf("access shift wrong: sparse %d->%d dense %d->%d",
			statsB.Sparse, statsA.Sparse, statsB.Dense, statsA.Dense)
	}
}

func TestHistogramTransformShape(t *testing.T) {
	_, ade, _ := applyADE(t, buildHistogram(), DefaultOptions())
	text := ir.Print(ade)
	for _, want := range []string{
		"Map{BitMap}<idx,u32>",  // rewritten allocation type (Listing 2)
		"enumglobal<u64> @ade0", // class enumeration global
		"call @add(",            // translation for %val
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("transformed program missing %q:\n%s", want, text)
		}
	}
	// RTE: the output loop iterates the enumerated map, so the foreach
	// key is already an identifier; the only dec should be for the
	// emit, and no enc of a decoded value should appear.
	if strings.Contains(text, "call @enc(") {
		// All key positions are fed by the single hoisted @add.
		t.Fatalf("unexpected enc (RTE should have elided):\n%s", text)
	}
}

func TestHistogramNoRTEStillCorrectButSlower(t *testing.T) {
	opts := DefaultOptions()
	opts.RTE = false
	opts.ForceAll = true
	base, ade, _ := applyADE(t, buildHistogram(), opts)
	retB, statsB := runCount(t, base, histVals)
	retA, statsA := runCount(t, ade, histVals)
	if retB != retA || statsB.EmitSum != statsA.EmitSum {
		t.Fatal("no-RTE output differs from baseline")
	}
	// Without RTE the second loop decodes the key and re-encodes it
	// at each read: translation counts must exceed the RTE version.
	optsOn := DefaultOptions()
	_, adeOn, _ := applyADE(t, buildHistogram(), optsOn)
	_, statsOn := runCount(t, adeOn, histVals)
	transOff := statsA.Counts[interp.ImplEnum][interp.OKEnc] + statsA.Counts[interp.ImplEnum][interp.OKDec] + statsA.Counts[interp.ImplEnum][interp.OKAdd]
	transOn := statsOn.Counts[interp.ImplEnum][interp.OKEnc] + statsOn.Counts[interp.ImplEnum][interp.OKDec] + statsOn.Counts[interp.ImplEnum][interp.OKAdd]
	if transOff <= transOn {
		t.Fatalf("no-RTE translations (%d) not more than RTE (%d)", transOff, transOn)
	}
}

// buildUnionFind is Listing 3: iteratively chase parents through a
// map; with propagation the loop body runs translation-free
// (Listing 4).
func buildUnionFind() *ir.Program {
	// fn u64 @find(%uf: Map<u64,u64>, %v: u64)
	b := ir.NewFunc("find", ir.TU64)
	uf := b.Param("uf", ir.MapOf(ir.TU64, ir.TU64))
	v := b.Param("v", ir.TU64)
	dw := b.DoWhileBegin()
	curr := b.LoopPhi(dw, "curr", v)
	parent := b.Read(ir.Op(uf), curr, "parent")
	notDone := b.Cmp(ir.CmpNe, parent, curr, "not_done")
	b.SetLatch(curr, parent)
	b.DoWhileEnd(dw, notDone)
	found := b.LoopExitPhi(dw, "found", parent)
	b.Ret(found)

	// fn u64 @main(%keys: Seq<u64>): build a chain union-find, then
	// find() each key, emitting results.
	m := ir.NewFunc("main", ir.TU64)
	m.Fn.Exported = true
	keys := m.Param("keys", ir.SeqOf(ir.TU64))
	uf2 := m.New(ir.MapOf(ir.TU64, ir.TU64), "uf")
	// parent(keys[i]) = keys[i/2] (a forest).
	fe := m.ForEachBegin(ir.Op(keys), "i", "k")
	uf0 := m.LoopPhi(fe, "uf0", uf2)
	half := m.Bin(ir.BinDiv, fe.Key, ir.ConstInt(ir.TU64, 2), "half")
	pk := m.Read(ir.Op(keys), half, "pk")
	uf1 := m.Insert(ir.Op(uf0), fe.Val, "uf1")
	uf3 := m.Write(ir.Op(uf1), fe.Val, pk, "uf3")
	m.SetLatch(uf0, uf3)
	m.ForEachEnd(fe)
	ufF := m.LoopExitPhi(fe, "ufF", uf0)

	fe2 := m.ForEachBegin(ir.Op(keys), "j", "k2")
	acc0 := m.LoopPhi(fe2, "acc0", ir.ConstInt(ir.TU64, 0))
	r := m.Call("find", ir.TU64, "r", ir.Op(ufF), ir.Op(fe2.Val))
	acc1 := m.Bin(ir.BinAdd, acc0, r, "acc1")
	m.SetLatch(acc0, acc1)
	m.ForEachEnd(fe2)
	accF := m.LoopExitPhi(fe2, "accF", acc0)
	m.Emit(accF)
	m.Ret(accF)

	p := ir.NewProgram()
	p.Add(b.Fn)
	p.Add(m.Fn)
	return p
}

func runMain(t *testing.T, p *ir.Program, vals []uint64) (uint64, *interp.Stats) {
	t.Helper()
	ip := interp.New(p, interp.DefaultOptions())
	c := ip.NewColl(ir.SeqOf(ir.TU64))
	s := c.(*interp.RSeqArr)
	for _, v := range vals {
		s.Append(interp.IntV(v))
	}
	ret, err := ip.Run("main", interp.CollV(c))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(p))
	}
	return ret.I, ip.Stats
}

var ufKeys = []uint64{500009, 71, 999983, 12345, 42, 900001, 77777, 3}

func TestUnionFindPropagation(t *testing.T) {
	base, ade, rep := applyADE(t, buildUnionFind(), DefaultOptions())

	retB, statsB := runMain(t, base, ufKeys)
	retA, statsA := runMain(t, ade, ufKeys)
	if retB != retA || statsB.EmitSum != statsA.EmitSum {
		t.Fatalf("outputs differ: %d vs %d\n%s", retB, retA, ir.Print(ade))
	}
	// Propagation: the map's values are identifiers, so the callee's
	// chase loop does no translations. Total translations should be
	// bounded by the number of keys (the @add per insert and the final
	// decode), not by the number of loop iterations.
	trans := statsA.Counts[interp.ImplEnum][interp.OKEnc] +
		statsA.Counts[interp.ImplEnum][interp.OKDec] +
		statsA.Counts[interp.ImplEnum][interp.OKAdd]
	iters := statsA.Counts[collections.ImplBitMap][interp.OKRead]
	if iters == 0 {
		t.Fatalf("find loop did not read a BitMap (map not enumerated?)\nreport:\n%s\n%s", rep, ir.Print(ade))
	}
	// Listing 4's shape: per main-loop key two @adds (build), and per
	// find() call one @add of the query plus one final @dec.
	if trans > uint64(4*len(ufKeys)+4) {
		t.Fatalf("too many translations (%d) for %d keys — propagation failed\n%s", trans, len(ufKeys), ir.Print(ade))
	}
	// The interprocedural stage must have unified the param with the
	// caller's allocation (one shared class).
	if len(rep.Classes) != 1 {
		t.Fatalf("classes = %d, want 1 shared class:\n%s", len(rep.Classes), rep)
	}
}

func TestNoPropagationStillCorrect(t *testing.T) {
	opts := DefaultOptions()
	opts.Propagation = false
	base, ade, _ := applyADE(t, buildUnionFind(), opts)
	retB, statsB := runMain(t, base, ufKeys)
	retA, statsA := runMain(t, ade, ufKeys)
	if retB != retA || statsB.EmitSum != statsA.EmitSum {
		t.Fatal("no-propagation output differs")
	}
	_ = statsA
}

func TestNoSharingStillCorrect(t *testing.T) {
	opts := DefaultOptions()
	opts.Sharing = false
	opts.Propagation = false
	base, ade, _ := applyADE(t, buildUnionFind(), opts)
	retB, statsB := runMain(t, base, ufKeys)
	retA, statsA := runMain(t, ade, ufKeys)
	if retB != retA || statsB.EmitSum != statsA.EmitSum {
		t.Fatal("no-sharing output differs")
	}
	_ = statsA
}

func TestDirectiveNoEnumerate(t *testing.T) {
	p := buildHistogram()
	// Attach noenumerate to the histogram allocation.
	for _, in := range ir.Allocations(p.Func("count")) {
		in.Dir = &ir.Directive{NoEnumerate: true}
	}
	_, ade, rep := applyADE(t, p, DefaultOptions())
	if len(rep.Classes) != 0 {
		t.Fatalf("noenumerate ignored: %s", rep)
	}
	_, stats := runCount(t, ade, histVals)
	if stats.Counts[collections.ImplBitMap][interp.OKHas] != 0 {
		t.Fatal("noenumerate site still got a BitMap")
	}
}

func TestDirectiveSelect(t *testing.T) {
	p := buildHistogram()
	// Select a SwissMap without enumeration.
	for _, in := range ir.Allocations(p.Func("count")) {
		in.Dir = &ir.Directive{NoEnumerate: true, Select: collections.ImplSwissMap}
	}
	// Selection without enumeration is applied directly on the
	// allocation type by the driver; emulate that here.
	for _, in := range ir.Allocations(p.Func("count")) {
		in.Alloc.Sel = in.Dir.Select
	}
	_, ade, _ := applyADE(t, p, DefaultOptions())
	_, stats := runCount(t, ade, histVals)
	if stats.Counts[collections.ImplSwissMap][interp.OKHas] == 0 {
		t.Fatal("select(SwissMap) not honored")
	}
}

func TestDirectiveEnumerateForces(t *testing.T) {
	// A map used once: no redundancy, benefit 0, normally skipped.
	b := ir.NewFunc("once", ir.TU64)
	b.Fn.Exported = true
	m := b.New(ir.MapOf(ir.TU64, ir.TU64), "m")
	m1 := b.Insert(ir.Op(m), ir.ConstInt(ir.TU64, 99991), "m1")
	n := b.Size(ir.Op(m1), "n")
	b.Ret(n)
	p := ir.NewProgram()
	p.Add(b.Fn)

	_, _, rep := applyADE(t, p, DefaultOptions())
	if len(rep.Classes) != 0 {
		t.Fatalf("zero-benefit site enumerated without directive:\n%s", rep)
	}

	p2 := ir.NewProgram()
	b2 := ir.NewFunc("once", ir.TU64)
	b2.Fn.Exported = true
	m = b2.NewDir(ir.MapOf(ir.TU64, ir.TU64), "m", &ir.Directive{Enumerate: true})
	m1 = b2.Insert(ir.Op(m), ir.ConstInt(ir.TU64, 99991), "m1")
	n = b2.Size(ir.Op(m1), "n")
	b2.Ret(n)
	p2.Add(b2.Fn)
	_, _, rep2 := applyADE(t, p2, DefaultOptions())
	if len(rep2.Classes) != 1 {
		t.Fatalf("enumerate directive did not force:\n%s", rep2)
	}
}

// TestSharing: two maps over the same sparse domain; keys of one are
// iterated and used to probe the other. Sharing should put both in one
// class and elide the boundary translations.
func TestSharingTwoMaps(t *testing.T) {
	b := ir.NewFunc("main", ir.TU64)
	b.Fn.Exported = true
	keys := b.Param("keys", ir.SeqOf(ir.TU64))
	m1 := b.New(ir.MapOf(ir.TU64, ir.TU64), "m1")
	m2 := b.New(ir.MapOf(ir.TU64, ir.TU64), "m2")

	fe := b.ForEachBegin(ir.Op(keys), "i", "k")
	m1p := b.LoopPhi(fe, "m1p", m1)
	m2p := b.LoopPhi(fe, "m2p", m2)
	m1a := b.Insert(ir.Op(m1p), fe.Val, "m1a")
	m1b := b.Write(ir.Op(m1a), fe.Val, fe.Key, "m1b")
	m2a := b.Insert(ir.Op(m2p), fe.Val, "m2a")
	m2b := b.Write(ir.Op(m2a), fe.Val, fe.Key, "m2b")
	b.SetLatch(m1p, m1b)
	b.SetLatch(m2p, m2b)
	b.ForEachEnd(fe)
	m1F := b.LoopExitPhi(fe, "m1F", m1p)
	m2F := b.LoopExitPhi(fe, "m2F", m2p)

	// Iterate m1, probe m2 with m1's keys.
	fe2 := b.ForEachBegin(ir.Op(m1F), "k2", "v2")
	acc0 := b.LoopPhi(fe2, "acc0", ir.ConstInt(ir.TU64, 0))
	got := b.Read(ir.Op(m2F), fe2.Key, "got")
	acc1 := b.Bin(ir.BinAdd, acc0, got, "acc1")
	b.SetLatch(acc0, acc1)
	b.ForEachEnd(fe2)
	accF := b.LoopExitPhi(fe2, "accF", acc0)
	b.Emit(accF)
	b.Ret(accF)

	p := ir.NewProgram()
	p.Add(b.Fn)
	base, ade, rep := applyADE(t, p, DefaultOptions())
	if len(rep.Classes) != 1 {
		t.Fatalf("want one shared class, got:\n%s\n%s", rep, ir.Print(ade))
	}
	var cls *ClassReport
	for _, c := range rep.Classes {
		cls = c
	}
	if len(cls.Sites) < 2 {
		t.Fatalf("shared class covers %d sites, want >= 2:\n%s", len(cls.Sites), rep)
	}

	retB, statsB := runMain(t, base, ufKeys)
	retA, statsA := runMain(t, ade, ufKeys)
	if retB != retA || statsB.EmitSum != statsA.EmitSum {
		t.Fatalf("outputs differ: %d vs %d", retB, retA)
	}
	// In the probe loop, m1's iterated key is already m2's identifier:
	// the only translations should be the per-key @add of the build
	// loop.
	encs := statsA.Counts[interp.ImplEnum][interp.OKEnc]
	if encs != 0 {
		t.Fatalf("probe loop still encodes (%d encs)\n%s", encs, ir.Print(ade))
	}
}

// TestInterprocClone: a helper called with an enumerated map from one
// caller and a plain (escaped) map from another must be cloned.
func TestInterprocClone(t *testing.T) {
	// fn u64 @total(%m: Map<u64,u64>, %keys: Seq<u64>)
	h := ir.NewFunc("total", ir.TU64)
	hm := h.Param("m", ir.MapOf(ir.TU64, ir.TU64))
	hkeys := h.Param("keys", ir.SeqOf(ir.TU64))
	fe := h.ForEachBegin(ir.Op(hkeys), "i", "k")
	acc0 := h.LoopPhi(fe, "acc0", ir.ConstInt(ir.TU64, 0))
	var got *ir.Value
	hasK := h.Has(ir.Op(hm), fe.Val, "hasK")
	iff := h.If(hasK, func() {
		got = h.Read(ir.Op(hm), fe.Val, "got")
	}, nil)
	got0 := h.IfPhi(iff, "got0", got, ir.ConstInt(ir.TU64, 0))
	acc1 := h.Bin(ir.BinAdd, acc0, got0, "acc1")
	h.SetLatch(acc0, acc1)
	h.ForEachEnd(fe)
	accF := h.LoopExitPhi(fe, "accF", acc0)
	h.Ret(accF)

	// fn u64 @main(%keys: Seq<u64>, %plain: Map<u64,u64>)
	m := ir.NewFunc("main", ir.TU64)
	m.Fn.Exported = true
	keys := m.Param("keys", ir.SeqOf(ir.TU64))
	plain := m.Param("plain", ir.MapOf(ir.TU64, ir.TU64)) // exported param: never enumerated
	mine := m.New(ir.MapOf(ir.TU64, ir.TU64), "mine")
	fe2 := m.ForEachBegin(ir.Op(keys), "i", "k")
	mp := m.LoopPhi(fe2, "mp", mine)
	ma := m.Insert(ir.Op(mp), fe2.Val, "ma")
	mb := m.Write(ir.Op(ma), fe2.Val, fe2.Key, "mb")
	m.SetLatch(mp, mb)
	m.ForEachEnd(fe2)
	mF := m.LoopExitPhi(fe2, "mF", mp)
	// Iterate mine so there is local benefit.
	fe3 := m.ForEachBegin(ir.Op(mF), "k3", "v3")
	s0 := m.LoopPhi(fe3, "s0", ir.ConstInt(ir.TU64, 0))
	r3 := m.Read(ir.Op(mF), fe3.Key, "r3")
	s1 := m.Bin(ir.BinAdd, s0, r3, "s1")
	m.SetLatch(s0, s1)
	m.ForEachEnd(fe3)
	sF := m.LoopExitPhi(fe3, "sF", s0)

	t1 := m.Call("total", ir.TU64, "t1", ir.Op(mF), ir.Op(keys))
	t2 := m.Call("total", ir.TU64, "t2", ir.Op(plain), ir.Op(keys))
	tt := m.Bin(ir.BinAdd, t1, t2, "tt")
	tt2 := m.Bin(ir.BinAdd, tt, sF, "tt2")
	m.Emit(tt2)
	m.Ret(tt2)

	p := ir.NewProgram()
	p.Add(h.Fn)
	p.Add(m.Fn)

	base, ade, rep := applyADE(t, p, DefaultOptions())
	if len(rep.Cloned) != 1 {
		t.Fatalf("expected one clone, got %v\n%s\n%s", rep.Cloned, rep, ir.Print(ade))
	}

	run := func(pp *ir.Program) (uint64, uint64) {
		ip := interp.New(pp, interp.DefaultOptions())
		ks := ip.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
		for _, v := range ufKeys {
			ks.Append(interp.IntV(v))
		}
		pl := ip.NewColl(ir.MapOf(ir.TU64, ir.TU64)).(interp.RMap)
		pl.Put(interp.IntV(71), interp.IntV(1000))
		pl.Put(interp.IntV(3), interp.IntV(2000))
		ret, err := ip.Run("main", interp.CollV(ks), interp.CollV(pl.(interp.Coll)))
		if err != nil {
			t.Fatalf("run: %v\n%s", err, ir.Print(pp))
		}
		return ret.I, ip.Stats.EmitSum
	}
	retB, sumB := run(base)
	retA, sumA := run(ade)
	if retB != retA || sumB != sumA {
		t.Fatalf("outputs differ: %d vs %d", retB, retA)
	}
}

// TestNestedEnumeration: Map<u64, Set<u64>> where the inner sets are
// unioned — the PTA shape.
func TestNestedEnumeration(t *testing.T) {
	b := ir.NewFunc("main", ir.TU64)
	b.Fn.Exported = true
	keys := b.Param("keys", ir.SeqOf(ir.TU64))
	pts := b.New(ir.MapOf(ir.TU64, ir.SetOf(ir.TU64)), "pts")

	// Build: pts[k] = {k, k*3}.
	fe := b.ForEachBegin(ir.Op(keys), "i", "k")
	p0 := b.LoopPhi(fe, "p0", pts)
	p1 := b.Insert(ir.Op(p0), fe.Val, "p1")
	p2 := b.Insert(ir.OpAt(p1, fe.Val), fe.Val, "p2")
	k3 := b.Bin(ir.BinMul, fe.Val, ir.ConstInt(ir.TU64, 3), "k3")
	p3 := b.Insert(ir.OpAt(p2, fe.Val), k3, "p3")
	b.SetLatch(p0, p3)
	b.ForEachEnd(fe)
	pF := b.LoopExitPhi(fe, "pF", p0)

	// Union chains: pts[keys[i]] |= pts[keys[i/2]].
	fe2 := b.ForEachBegin(ir.Op(keys), "j", "k2")
	q0 := b.LoopPhi(fe2, "q0", pF)
	half := b.Bin(ir.BinDiv, fe2.Key, ir.ConstInt(ir.TU64, 2), "half")
	pk := b.Read(ir.Op(keys), half, "pk")
	q1 := b.Union(ir.OpAt(q0, fe2.Val), ir.OpAt(q0, pk), "q1")
	b.SetLatch(q0, q1)
	b.ForEachEnd(fe2)
	qF := b.LoopExitPhi(fe2, "qF", q0)

	// Checksum: total size of all inner sets.
	fe3 := b.ForEachBegin(ir.Op(keys), "l", "k4")
	a0 := b.LoopPhi(fe3, "a0", ir.ConstInt(ir.TU64, 0))
	sz := b.Size(ir.OpAt(qF, fe3.Val), "sz")
	a1 := b.Bin(ir.BinAdd, a0, sz, "a1")
	b.SetLatch(a0, a1)
	b.ForEachEnd(fe3)
	aF := b.LoopExitPhi(fe3, "aF", a0)
	b.Emit(aF)
	b.Ret(aF)

	p := ir.NewProgram()
	p.Add(b.Fn)
	base, ade, rep := applyADE(t, p, DefaultOptions())

	retB, statsB := runMain(t, base, ufKeys)
	retA, statsA := runMain(t, ade, ufKeys)
	if retB != retA || statsB.EmitSum != statsA.EmitSum {
		t.Fatalf("outputs differ: %d vs %d\nreport:\n%s\n%s", retB, retA, rep, ir.Print(ade))
	}
	// Inner sets must be BitSets with word-wise unions.
	if statsA.Counts[collections.ImplBitSet][interp.OKUnionWord] == 0 {
		t.Fatalf("nested sets not enumerated (no bitset unions)\nreport:\n%s\n%s", rep, ir.Print(ade))
	}
}
