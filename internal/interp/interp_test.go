package interp

import (
	"testing"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// buildHistogram is Listing 1: count value frequencies of the input
// sequence, then emit every (value, frequency) pair's sum as output.
func buildHistogram(mapSel collections.Impl) *ir.Program {
	b := ir.NewFunc("count", ir.TU64)
	input := b.Param("input", ir.SeqOf(ir.TU64))
	mt := ir.MapOf(ir.TU64, ir.TU32)
	mt.Sel = mapSel
	hist := b.New(mt, "hist")
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

	// Emit sum over (k + freq) and return number of distinct keys.
	fe2 := b.ForEachBegin(ir.Op(histF), "k", "f")
	f64 := b.Cast(fe2.Val, ir.TU64, "f64")
	kv := b.Bin(ir.BinAdd, fe2.Key, f64, "kv")
	b.Emit(kv)
	b.ForEachEnd(fe2)
	n := b.Size(ir.Op(histF), "n")
	b.Ret(n)

	p := ir.NewProgram()
	p.Add(b.Fn)
	return p
}

// buildHistogramADE is Listing 2: the same program after manual data
// enumeration, with the map keyed by identifiers and implemented as a
// BitMap.
func buildHistogramADE() *ir.Program {
	b := ir.NewFunc("count", ir.TU64)
	input := b.Param("input", ir.SeqOf(ir.TU64))
	mt := ir.MapOf(ir.TIdx, ir.TU32)
	mt.Sel = collections.ImplBitMap
	e := b.NewEnum(ir.TU64, "e")
	hist := b.New(mt, "hist")
	fe := b.ForEachBegin(ir.Op(input), "i", "val")
	hist0 := b.LoopPhi(fe, "hist0", hist)
	e0 := b.LoopPhi(fe, "e0", e)
	e1, id := b.EnumAdd(e0, fe.Val, "e1", "id")
	cond := b.Has(ir.Op(hist0), id, "cond")
	var freq, hist1 *ir.Value
	iff := b.If(cond, func() {
		freq = b.Read(ir.Op(hist0), id, "freq")
	}, func() {
		hist1 = b.Insert(ir.Op(hist0), id, "hist1")
	})
	freq0 := b.IfPhi(iff, "freq0", freq, ir.ConstInt(ir.TU32, 0))
	hist2 := b.IfPhi(iff, "hist2", hist0, hist1)
	freq1 := b.Bin(ir.BinAdd, freq0, ir.ConstInt(ir.TU32, 1), "freq1")
	hist3 := b.Write(ir.Op(hist2), id, freq1, "hist3")
	b.SetLatch(hist0, hist3)
	b.SetLatch(e0, e1)
	b.ForEachEnd(fe)
	histF := b.LoopExitPhi(fe, "histF", hist0)
	eF := b.LoopExitPhi(fe, "eF", e0)

	fe2 := b.ForEachBegin(ir.Op(histF), "id2", "f")
	k := b.Dec(eF, fe2.Key, "k")
	f64 := b.Cast(fe2.Val, ir.TU64, "f64")
	kv := b.Bin(ir.BinAdd, k, f64, "kv")
	b.Emit(kv)
	b.ForEachEnd(fe2)
	n := b.Size(ir.Op(histF), "n")
	b.Ret(n)

	p := ir.NewProgram()
	p.Add(b.Fn)
	return p
}

func inputSeq(ip *Interp, vals []uint64) Val {
	c := ip.NewColl(ir.SeqOf(ir.TU64))
	s := c.(*RSeqArr)
	for _, v := range vals {
		s.Append(IntV(v))
	}
	return CollV(c)
}

var histInput = []uint64{
	1007, 42, 1007, 99999, 42, 42, 31337, 1007, 7, 99999, 123456789, 7, 7, 7,
}

func TestHistogramBaseline(t *testing.T) {
	p := buildHistogram(collections.ImplNone)
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ip := New(p, DefaultOptions())
	ret, err := ip.Run("count", inputSeq(ip, histInput))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 6 {
		t.Fatalf("distinct keys = %d, want 6", ret.I)
	}
	if ip.Stats.EmitCount != 6 {
		t.Fatalf("emits = %d, want 6", ip.Stats.EmitCount)
	}
	if ip.Stats.Sparse == 0 {
		t.Fatal("baseline histogram recorded no sparse accesses")
	}
}

func TestHistogramADEEquivalence(t *testing.T) {
	base := buildHistogram(collections.ImplNone)
	ade := buildHistogramADE()
	if err := ir.Verify(ade); err != nil {
		t.Fatalf("verify ADE: %v", err)
	}

	ipB := New(base, DefaultOptions())
	retB, err := ipB.Run("count", inputSeq(ipB, histInput))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ipA := New(ade, DefaultOptions())
	retA, err := ipA.Run("count", inputSeq(ipA, histInput))
	if err != nil {
		t.Fatalf("ade: %v", err)
	}
	if retB.I != retA.I {
		t.Fatalf("returns differ: %d vs %d", retB.I, retA.I)
	}
	if ipB.Stats.EmitSum != ipA.Stats.EmitSum || ipB.Stats.EmitCount != ipA.Stats.EmitCount {
		t.Fatalf("output checksums differ: (%d,%d) vs (%d,%d)",
			ipB.Stats.EmitCount, ipB.Stats.EmitSum, ipA.Stats.EmitCount, ipA.Stats.EmitSum)
	}
	// The enumerated program replaces hash-map probes with dense
	// accesses.
	if ipA.Stats.Counts[collections.ImplBitMap][OKHas] == 0 {
		t.Fatal("ADE histogram did not touch a BitMap")
	}
	if ipA.Stats.Counts[collections.ImplHashMap][OKHas] != 0 {
		t.Fatal("ADE histogram still probing a HashMap")
	}
}

func TestSwissDefaultOption(t *testing.T) {
	p := buildHistogram(collections.ImplNone)
	opts := DefaultOptions()
	opts.DefaultMap = collections.ImplSwissMap
	opts.DefaultSet = collections.ImplSwissSet
	ip := New(p, opts)
	if _, err := ip.Run("count", inputSeq(ip, histInput)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ip.Stats.Counts[collections.ImplSwissMap][OKHas] == 0 {
		t.Fatal("Swiss default not honored")
	}
}

func TestDoWhileAndCall(t *testing.T) {
	// fn u64 @twice(%x: u64): ret x*2
	callee := ir.NewFunc("twice", ir.TU64)
	x := callee.Param("x", ir.TU64)
	callee.Ret(callee.Bin(ir.BinMul, x, ir.ConstInt(ir.TU64, 2), "r"))

	// fn u64 @main(): do i=i+1 while i<10; ret twice(i)
	b := ir.NewFunc("main", ir.TU64)
	dw := b.DoWhileBegin()
	i0 := b.LoopPhi(dw, "i0", ir.ConstInt(ir.TU64, 0))
	i1 := b.Bin(ir.BinAdd, i0, ir.ConstInt(ir.TU64, 1), "i1")
	cond := b.Cmp(ir.CmpLt, i1, ir.ConstInt(ir.TU64, 10), "cond")
	b.SetLatch(i0, i1)
	b.DoWhileEnd(dw, cond)
	iF := b.LoopExitPhi(dw, "iF", i0)
	r := b.Call("twice", ir.TU64, "r", ir.Op(iF))
	b.Ret(r)

	p := ir.NewProgram()
	p.Add(callee.Fn)
	p.Add(b.Fn)
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ip := New(p, DefaultOptions())
	ret, err := ip.Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 20 {
		t.Fatalf("ret = %d, want 20", ret.I)
	}
}

func TestNestedCollections(t *testing.T) {
	// Map<u64, Set<u64>>: insert keys, then insert into nested sets via
	// operand paths, then size the nested set.
	b := ir.NewFunc("nested", ir.TU64)
	m := b.New(ir.MapOf(ir.TU64, ir.SetOf(ir.TU64)), "m")
	k := ir.ConstInt(ir.TU64, 5)
	m1 := b.Insert(ir.Op(m), k, "m1")
	m2 := b.Insert(ir.OpAt(m1, k), ir.ConstInt(ir.TU64, 100), "m2")
	m3 := b.Insert(ir.OpAt(m2, k), ir.ConstInt(ir.TU64, 200), "m3")
	m4 := b.Insert(ir.OpAt(m3, k), ir.ConstInt(ir.TU64, 100), "m4")
	n := b.Size(ir.OpAt(m4, k), "n")
	b.Ret(n)
	p := ir.NewProgram()
	p.Add(b.Fn)
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ip := New(p, DefaultOptions())
	ret, err := ip.Run("nested")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 2 {
		t.Fatalf("nested set size = %d, want 2", ret.I)
	}
}

func TestUnionFastPathBitSet(t *testing.T) {
	st := ir.SetOf(ir.TIdx)
	st.Sel = collections.ImplBitSet
	b := ir.NewFunc("u", ir.TU64)
	a := b.New(st, "a")
	c := b.New(st, "c")
	a1 := b.Insert(ir.Op(a), ir.ConstInt(ir.TIdx, 1), "a1")
	a2 := b.Insert(ir.Op(a1), ir.ConstInt(ir.TIdx, 2), "a2")
	c1 := b.Insert(ir.Op(c), ir.ConstInt(ir.TIdx, 2), "c1")
	c2 := b.Insert(ir.Op(c1), ir.ConstInt(ir.TIdx, 3), "c2")
	u := b.Union(ir.Op(a2), ir.Op(c2), "u")
	n := b.Size(ir.Op(u), "n")
	b.Ret(n)
	p := ir.NewProgram()
	p.Add(b.Fn)
	ip := New(p, DefaultOptions())
	ret, err := ip.Run("u")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 3 {
		t.Fatalf("union size = %d, want 3", ret.I)
	}
	if ip.Stats.Counts[collections.ImplBitSet][OKUnionWord] == 0 {
		t.Fatal("bitset union fast path not taken")
	}
}

func TestWriteMissingKeyFails(t *testing.T) {
	b := ir.NewFunc("bad", ir.TVoid)
	m := b.New(ir.MapOf(ir.TU64, ir.TU64), "m")
	b.Write(ir.Op(m), ir.ConstInt(ir.TU64, 1), ir.ConstInt(ir.TU64, 2), "m1")
	b.Ret(nil)
	p := ir.NewProgram()
	p.Add(b.Fn)
	ip := New(p, DefaultOptions())
	if _, err := ip.Run("bad"); err == nil {
		t.Fatal("write to missing key did not error")
	}
}

func TestMemoryAccounting(t *testing.T) {
	b := ir.NewFunc("mem", ir.TVoid)
	s := b.New(ir.SetOf(ir.TU64), "s")
	dw := b.DoWhileBegin()
	i0 := b.LoopPhi(dw, "i0", ir.ConstInt(ir.TU64, 0))
	s0 := b.LoopPhi(dw, "s0", s)
	s1 := b.Insert(ir.Op(s0), i0, "s1")
	i1 := b.Bin(ir.BinAdd, i0, ir.ConstInt(ir.TU64, 1), "i1")
	cond := b.Cmp(ir.CmpLt, i1, ir.ConstInt(ir.TU64, 100000), "cond")
	b.SetLatch(i0, i1)
	b.SetLatch(s0, s1)
	b.DoWhileEnd(dw, cond)
	b.Ret(nil)
	p := ir.NewProgram()
	p.Add(b.Fn)
	ip := New(p, DefaultOptions())
	if _, err := ip.Run("mem"); err != nil {
		t.Fatalf("run: %v", err)
	}
	ip.FinalizeMem()
	// 100k u64-ish entries in an open-addressing table: at least
	// 100000 * (16 bytes value + 1 state byte) once loaded.
	if ip.Stats.PeakBytes < 100000 {
		t.Fatalf("PeakBytes = %d, implausibly small", ip.Stats.PeakBytes)
	}
}

func TestModeledCostPrefersDense(t *testing.T) {
	base := buildHistogram(collections.ImplNone)
	ade := buildHistogramADE()
	big := make([]uint64, 0, 30000)
	for i := 0; i < 30000; i++ {
		big = append(big, uint64(i%500)*7919+13)
	}
	ipB := New(base, DefaultOptions())
	if _, err := ipB.Run("count", inputSeq(ipB, big)); err != nil {
		t.Fatal(err)
	}
	ipA := New(ade, DefaultOptions())
	if _, err := ipA.Run("count", inputSeq(ipA, big)); err != nil {
		t.Fatal(err)
	}
	for _, arch := range []Arch{ArchIntelX64, ArchAArch64} {
		b := ipB.Stats.ModeledNanos(arch)
		a := ipA.Stats.ModeledNanos(arch)
		if a >= b {
			t.Fatalf("%v: modeled ADE cost %.0f >= baseline %.0f", arch, a, b)
		}
	}
	// Table II shape: ADE trades sparse accesses for dense ones.
	if ipA.Stats.Sparse >= ipB.Stats.Sparse {
		t.Fatalf("ADE sparse %d >= baseline %d", ipA.Stats.Sparse, ipB.Stats.Sparse)
	}
	if ipA.Stats.Dense <= ipB.Stats.Dense {
		t.Fatalf("ADE dense %d <= baseline %d", ipA.Stats.Dense, ipB.Stats.Dense)
	}
}

func TestPerOpSpeedupMatchesTableIII(t *testing.T) {
	// Spot-check that the calibrated model reproduces the paper's
	// headline per-op ratios.
	got := PerOpSpeedup(ArchIntelX64, collections.ImplBitMap, collections.ImplHashMap, OKRead)
	if got < 10 || got > 11 {
		t.Fatalf("BitMap read speedup = %.2f, want ~10.63", got)
	}
	got = PerOpSpeedup(ArchAArch64, collections.ImplBitSet, collections.ImplHashSet, OKInsert)
	if got < 12 || got > 13 {
		t.Fatalf("AArch64 BitSet insert speedup = %.2f, want ~12.53", got)
	}
	// Set iteration is the one operation where bitsets lose (Table
	// III's 0.19x): the cost model charges per word scanned, so a
	// sparsely-occupied bitset (few elements per word) iterates slower
	// than a hash set. At 1 element per 64 words — the shape of the
	// paper's microbenchmark and of RQ4's 0.009%-occupied sets — the
	// modeled per-element cost far exceeds a hash set's.
	t3 := Costs(ArchIntelX64)
	perElemSparse := t3[collections.ImplBitSet][OKIter] + 64*t3[collections.ImplBitSet][OKIterWord]
	if ratio := t3[collections.ImplHashSet][OKIter] / perElemSparse; ratio > 0.5 {
		t.Fatalf("sparse bitset iterate speedup = %.2f, want < 0.5", ratio)
	}
	// While a densely-occupied one (32 elements per word) is faster.
	perElemDense := t3[collections.ImplBitSet][OKIter] + t3[collections.ImplBitSet][OKIterWord]/32
	if ratio := t3[collections.ImplHashSet][OKIter] / perElemDense; ratio < 2 {
		t.Fatalf("dense bitset iterate speedup = %.2f, want > 2", ratio)
	}
}
