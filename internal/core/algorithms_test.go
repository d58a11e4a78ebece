package core

import (
	"testing"

	"memoir/internal/ir"
)

// Algorithm-level tests: the use sets computed by the site analysis
// must match a hand-derivation of the paper's Algorithm 1 on the
// histogram program (Listing 1).
func TestAlgorithm1UseSets(t *testing.T) {
	p := buildHistogram()
	fn := p.Func("count")
	fi := analyzeFunc(fn)

	var hist *site
	for _, s := range fi.sites {
		if a := s.alloc(); a != nil && a.Result().Name == "hist" && s.depth == 0 {
			hist = s
		}
	}
	if hist == nil {
		t.Fatal("histogram site not found")
	}
	if hist.key == nil {
		t.Fatal("no key facet for Map<u64,u32>")
	}
	// Algorithm 1 on Listing 1 + our output loop:
	//   has(hist0, val)      -> ToEnc
	//   read(hist0, val)     -> ToEnc
	//   write(hist2,val,...) -> ToEnc
	//   read(histF, k)       -> ToEnc   (output loop re-probe)
	//   insert(hist0, val)   -> ToAdd
	//   for [k,f] in histF   -> k in ToDec (id source)
	if got := len(hist.key.toEnc); got != 4 {
		t.Fatalf("ToEnc = %d positions, want 4", got)
	}
	if got := len(hist.key.toAdd); got != 1 {
		t.Fatalf("ToAdd = %d positions, want 1", got)
	}
	if got := len(hist.key.idSources); got != 1 {
		t.Fatalf("ToDec sources = %d, want 1 (the for-each key)", got)
	}
	opOf := func(pps []patchPoint) map[ir.Opcode]int {
		m := map[ir.Opcode]int{}
		for _, pp := range pps {
			m[pp.instr.Op]++
		}
		return m
	}
	enc := opOf(hist.key.toEnc)
	if enc[ir.OpHas] != 1 || enc[ir.OpRead] != 2 || enc[ir.OpWrite] != 1 {
		t.Fatalf("ToEnc op mix wrong: %v", enc)
	}

	// The element facet exists (u32 values) with the write value as
	// its ToAdd and the read result + loop value as its id sources.
	if hist.elem == nil {
		t.Fatal("no element facet")
	}
	if len(hist.elem.toAdd) != 1 || len(hist.elem.idSources) != 3 {
		t.Fatalf("elem facet: add=%d sources=%d, want 1/3",
			len(hist.elem.toAdd), len(hist.elem.idSources))
	}
}

// Algorithm 2's what-if count on the histogram: the single redundancy
// is the output loop's key flowing back into the read.
func TestAlgorithm2Benefit(t *testing.T) {
	p := buildHistogram()
	fn := p.Func("count")
	fi := analyzeFunc(fn)
	var hist *site
	for _, s := range fi.sites {
		if a := s.alloc(); a != nil && a.Result().Name == "hist" && s.depth == 0 {
			hist = s
		}
	}
	if got := newClassEval().benefit(fi, []*facet{hist.key}, nil); got != 1 {
		t.Fatalf("BENEFIT({hist.keys}) = %d, want 1 (the re-probe trim)", got)
	}
	// Adding the element facet uncovers no additional redundancy on
	// this program (values only feed arithmetic).
	joint := newClassEval().benefit(fi, []*facet{hist.key, hist.elem}, nil)
	if joint != 1 {
		t.Fatalf("BENEFIT({keys,elems}) = %d, want 1", joint)
	}
}

// Profile weighting: a zero-count user contributes nothing.
func TestBenefitProfileWeighting(t *testing.T) {
	p := buildHistogram()
	fn := p.Func("count")
	fi := analyzeFunc(fn)
	var hist *site
	for _, s := range fi.sites {
		if a := s.alloc(); a != nil && a.Result().Name == "hist" && s.depth == 0 {
			hist = s
		}
	}
	cold := func(*ir.Instr) uint64 { return 0 }
	if got := newClassEval().benefit(fi, []*facet{hist.key}, cold); got != 0 {
		t.Fatalf("cold-profile benefit = %d, want 0", got)
	}
	hot := func(*ir.Instr) uint64 { return 1000 }
	if got := newClassEval().benefit(fi, []*facet{hist.key}, hot); got != 1000 {
		t.Fatalf("hot-profile benefit = %d, want 1000", got)
	}
}

// Escape analysis: collections that leave the function's view must
// not be enumerated.
func TestEscapeRules(t *testing.T) {
	// Returned collection.
	b := ir.NewFunc("f", ir.SetOf(ir.TU64))
	s := b.New(ir.SetOf(ir.TU64), "s")
	s1 := b.Insert(ir.Op(s), ir.ConstInt(ir.TU64, 1), "")
	b.Ret(s1)
	fi := analyzeFunc(b.Fn)
	for _, st := range fi.sites {
		if st.escaped == "" {
			t.Fatalf("returned collection not marked escaped")
		}
	}

	// Collection stored into another collection.
	b2 := ir.NewFunc("g", ir.TVoid)
	inner := b2.New(ir.SetOf(ir.TU64), "inner")
	outer := b2.New(ir.MapOf(ir.TU64, ir.SetOf(ir.TU64)), "outer")
	o1 := b2.Insert(ir.Op(outer), ir.ConstInt(ir.TU64, 1), "")
	b2.Write(ir.Op(o1), ir.ConstInt(ir.TU64, 1), inner, "")
	b2.Ret(nil)
	fi2 := analyzeFunc(b2.Fn)
	var innerSite *site
	for _, st := range fi2.sites {
		if a := st.alloc(); a != nil && a.Result().Name == "inner" {
			innerSite = st
		}
	}
	if innerSite == nil || innerSite.escaped == "" {
		t.Fatal("collection stored into another collection not escaped")
	}
}

// Nested depth sites are discovered per level with the right domains.
func TestNestedSiteDiscovery(t *testing.T) {
	b := ir.NewFunc("f", ir.TVoid)
	b.New(ir.MapOf(ir.TPtr, ir.MapOf(ir.TU64, ir.SetOf(ir.TStr))), "deep")
	b.Ret(nil)
	fi := analyzeFunc(b.Fn)
	domains := map[int]string{}
	for _, s := range fi.sites {
		if s.key != nil {
			domains[s.depth] = s.key.domain.String()
		}
	}
	if domains[0] != "ptr" || domains[1] != "u64" || domains[2] != "str" {
		t.Fatalf("nested key domains = %v", domains)
	}
}
