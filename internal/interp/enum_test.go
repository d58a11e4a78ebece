package interp

import (
	"testing"
	"testing/quick"

	"memoir/internal/ir"
)

// The RTE rewrite rules of §III-C are only sound given the enumeration
// laws; these properties pin them down (DESIGN.md §6).

// dec(enc(v)) = v on the populated domain, and identifiers are
// contiguous [0, N) in first-add order.
func TestQuickEnumRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		e := NewEnum()
		seen := map[uint64]uint32{}
		for _, x := range vals {
			id, added := e.Add(IntV(x))
			if prev, ok := seen[x]; ok {
				if added || id != prev {
					return false // add must be idempotent
				}
			} else {
				if !added || int(id) != len(seen) {
					return false // contiguous first-add order
				}
				seen[x] = id
			}
		}
		if e.Len() != len(seen) {
			return false
		}
		for x, id := range seen {
			got, ok := e.Enc(IntV(x))
			if !ok || got != id {
				return false // enc agrees with add
			}
			if e.Dec(id).I != x {
				return false // dec inverts enc
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dec is injective: distinct identifiers decode to distinct values —
// the premise of the eq(dec x, dec y) → eq(x, y) rewrite.
func TestQuickEnumDecInjective(t *testing.T) {
	f := func(vals []uint64) bool {
		e := NewEnum()
		for _, x := range vals {
			e.Add(IntV(x))
		}
		seen := map[uint64]bool{}
		for id := 0; id < e.Len(); id++ {
			v := e.Dec(uint32(id)).I
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Enc of an absent value yields the sentinel, which no dense container
// ever holds.
func TestEnumAbsentSentinel(t *testing.T) {
	e := NewEnum()
	e.Add(StrV("present"))
	if id, ok := e.Enc(StrV("absent")); ok || id == 0 {
		_ = id
	}
	// The interpreter-level contract:
	p := ir.NewProgram()
	b := ir.NewFunc("main", ir.TU64)
	b.Fn.Exported = true
	en := b.NewEnum(ir.TU64, "e")
	st := ir.SetOf(ir.TIdx)
	st.Sel = 5 // collections.ImplBitSet
	s := b.New(st, "s")
	_, id1 := b.EnumAdd(en, ir.ConstInt(ir.TU64, 42), "", "")
	s1 := b.Insert(ir.Op(s), id1, "")
	ghost := b.Enc(en, ir.ConstInt(ir.TU64, 999), "")
	hasGhost := b.Has(ir.Op(s1), ghost, "")
	out := b.Select(hasGhost, ir.ConstInt(ir.TU64, 1), ir.ConstInt(ir.TU64, 0), "")
	b.Ret(out)
	p.Add(b.Fn)
	ip := New(p, DefaultOptions())
	ret, err := ip.Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ret.I != 0 {
		t.Fatal("membership test of an absent-value sentinel returned true")
	}
}

// Iteration-local allocations must not accumulate in the peak-memory
// model, while loop-carried ones must.
func TestIterationLocalLiveness(t *testing.T) {
	build := func(carry bool) *ir.Program {
		b := ir.NewFunc("main", ir.TU64)
		b.Fn.Exported = true
		input := b.Param("in", ir.SeqOf(ir.TU64))
		keep := b.New(ir.SeqOf(ir.TU64), "keep")
		fe := b.ForEachBegin(ir.Op(input), "i", "v")
		keep0 := b.LoopPhi(fe, "keep0", keep)
		scratch := b.New(ir.SetOf(ir.TU64), "scratch")
		s1 := b.Insert(ir.Op(scratch), fe.Val, "")
		sz := b.Size(ir.Op(s1), "")
		var latch *ir.Value
		if carry {
			// Carrying the scratch value out makes it loop-carried...
			latch = b.InsertSeq(ir.Op(keep0), nil, fe.Val, "")
		} else {
			latch = b.InsertSeq(ir.Op(keep0), nil, sz, "")
		}
		b.SetLatch(keep0, latch)
		b.ForEachEnd(fe)
		b.Ret(ir.ConstInt(ir.TU64, 0))
		p := ir.NewProgram()
		p.Add(b.Fn)
		return p
	}
	run := func(p *ir.Program) int64 {
		opts := DefaultOptions()
		opts.MemSampleEvery = 1
		ip := New(p, opts)
		seq := ip.NewColl(ir.SeqOf(ir.TU64)).(*RSeqArr)
		for i := 0; i < 500; i++ {
			seq.Append(IntV(uint64(i) * 7919))
		}
		if _, err := ip.Run("main", CollV(seq)); err != nil {
			t.Fatal(err)
		}
		ip.FinalizeMem()
		return ip.Stats.PeakBytes
	}
	local := run(build(false))
	// 500 iterations × one single-element hash set each (~700B per
	// instance): with reclamation modeled, the peak is dominated by
	// the two 500-element sequences (~90KB of 88-byte interpreter
	// values); with accumulation it would exceed 400KB.
	if local > 200*1024 {
		t.Fatalf("iteration-local scratch accumulated: peak=%d", local)
	}
	carried := run(build(true))
	if carried > 200*1024 {
		t.Fatalf("carried variant unexpectedly large: peak=%d", carried)
	}
}

func TestROIStatsSplit(t *testing.T) {
	b := ir.NewFunc("main", ir.TU64)
	b.Fn.Exported = true
	s := b.New(ir.SetOf(ir.TU64), "s")
	s1 := b.Insert(ir.Op(s), ir.ConstInt(ir.TU64, 1), "")
	b.ROI()
	s2 := b.Insert(ir.Op(s1), ir.ConstInt(ir.TU64, 2), "")
	s3 := b.Insert(ir.Op(s2), ir.ConstInt(ir.TU64, 3), "")
	n := b.Size(ir.Op(s3), "")
	b.Ret(n)
	p := ir.NewProgram()
	p.Add(b.Fn)
	ip := New(p, DefaultOptions())
	if _, err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	whole := ip.Stats
	roi := ip.ROIStats()
	var wIns, rIns uint64
	for i := 0; i < NImpls; i++ {
		wIns += whole.Counts[i][OKInsert]
		rIns += roi.Counts[i][OKInsert]
	}
	if wIns != 3 || rIns != 2 {
		t.Fatalf("inserts whole=%d roi=%d, want 3/2", wIns, rIns)
	}
}

func TestEnumGlobalSharedAcrossCalls(t *testing.T) {
	// Two functions loading the same enumglobal must see one
	// enumeration (recursion reuse, §III-F).
	f := ir.NewFunc("helper", ir.TU64)
	x := f.Param("x", ir.TU64)
	e := f.EnumGlobal("g", ir.TU64, "e")
	_, id := f.EnumAdd(e, x, "", "")
	f.Ret(id)

	m := ir.NewFunc("main", ir.TU64)
	m.Fn.Exported = true
	e2 := m.EnumGlobal("g", ir.TU64, "e2")
	_, id1 := m.EnumAdd(e2, ir.ConstInt(ir.TU64, 100), "", "")
	_ = id1
	r1 := m.Call("helper", ir.TU64, "", ir.Op(ir.ConstInt(ir.TU64, 200)))
	r2 := m.Call("helper", ir.TU64, "", ir.Op(ir.ConstInt(ir.TU64, 100)))
	sum := m.Bin(ir.BinMul, r1, ir.ConstInt(ir.TU64, 1000), "")
	out := m.Bin(ir.BinAdd, sum, r2, "")
	m.Ret(out)

	p := ir.NewProgram()
	p.Add(f.Fn)
	p.Add(m.Fn)
	ip := New(p, DefaultOptions())
	ret, err := ip.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	// 100 got id 0 in main; helper(200) issues id 1; helper(100)
	// reuses id 0 through the shared global.
	if ret.I != 1000 {
		t.Fatalf("ret = %d, want 1000 (ids 1 and 0)", ret.I)
	}
}
