package collections

import "testing"

func TestMapIterateEarlyStop(t *testing.T) {
	impls := map[string]Map[uint64, uint64]{
		"HashMap":  &HashMap[uint64, uint64]{},
		"SwissMap": NewUint64SwissMap[uint64](),
	}
	for name, m := range impls {
		for i := uint64(0); i < 50; i++ {
			m.Put(Mix64(i), i)
		}
		n := 0
		m.Iterate(func(k, v uint64) bool {
			n++
			return n < 10
		})
		if n != 10 {
			t.Errorf("%s: early stop visited %d", name, n)
		}
	}
	bm := NewBitMap[uint64]()
	for i := uint32(0); i < 50; i++ {
		bm.Put(i*3, uint64(i))
	}
	n := 0
	bm.Iterate(func(k uint32, v uint64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("BitMap: early stop visited %d", n)
	}
}

func TestSetIterateEarlyStop(t *testing.T) {
	impls := map[string]Set[uint64]{
		"HashSet":  newHashSet(),
		"SwissSet": NewUint64SwissSet(),
		"FlatSet":  NewUint64FlatSet(),
	}
	for name, s := range impls {
		for i := uint64(0); i < 50; i++ {
			s.Insert(Mix64(i))
		}
		n := 0
		s.Iterate(func(uint64) bool {
			n++
			return n < 7
		})
		if n != 7 {
			t.Errorf("%s: early stop visited %d", name, n)
		}
	}
	sp := NewSparseBitSet()
	for i := uint32(0); i < 50; i++ {
		sp.Insert(i * 99991) // multiple chunks
	}
	n := 0
	sp.Iterate(func(uint32) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("SparseBitSet: early stop visited %d", n)
	}
}

func TestClearKeepsWorking(t *testing.T) {
	sets := []Set[uint64]{newHashSet(), NewUint64SwissSet(), NewUint64FlatSet()}
	for _, s := range sets {
		for i := uint64(0); i < 100; i++ {
			s.Insert(Mix64(i))
		}
		s.Clear()
		if s.Len() != 0 || s.Has(Mix64(5)) {
			t.Fatalf("%v: clear incomplete", s.Kind())
		}
		for i := uint64(0); i < 100; i++ {
			s.Insert(Mix64(i))
		}
		if s.Len() != 100 {
			t.Fatalf("%v: reuse after clear failed", s.Kind())
		}
	}
}

func TestBytesGrowWithContent(t *testing.T) {
	type sized interface{ Bytes() int64 }
	grow := func(name string, empty sized, fill func()) {
		before := empty.Bytes()
		fill()
		if empty.Bytes() <= before {
			t.Errorf("%s: Bytes did not grow (%d -> %d)", name, before, empty.Bytes())
		}
	}
	hs := &HashMap[uint64, struct{}]{}
	grow("HashMap[uint64, struct{}]", hs, func() {
		for i := uint64(0); i < 1000; i++ {
			hs.Put(Mix64(i), struct{}{})
		}
	})
	sm := NewUint64SwissMap[uint64]()
	grow("SwissMap", sm, func() {
		for i := uint64(0); i < 1000; i++ {
			sm.Put(Mix64(i), i)
		}
	})
	bs := NewBitSet()
	grow("BitSet", bs, func() { bs.Insert(100000) })
	bm := NewBitMap[uint64]()
	grow("BitMap", bm, func() { bm.Put(5000, 1) })
	sp := NewSparseBitSet()
	grow("SparseBitSet", sp, func() {
		for i := uint32(0); i < 5000; i++ {
			sp.Insert(i)
		}
	})
}

func TestSwissGrowBoundary(t *testing.T) {
	// Fill right past each growth threshold to exercise the 7/8 load
	// path and the rehash.
	s := NewUint64SwissSet()
	for i := uint64(0); i < 4096; i++ {
		if !s.Insert(i * 7919) {
			t.Fatalf("duplicate at %d", i)
		}
		if s.Len() != int(i)+1 {
			t.Fatalf("Len=%d at %d", s.Len(), i)
		}
	}
	for i := uint64(0); i < 4096; i++ {
		if !s.Has(i * 7919) {
			t.Fatalf("lost %d after growth", i)
		}
	}
}

func TestHashMapZeroValueDistinguished(t *testing.T) {
	m := &HashMap[uint64, uint64]{}
	m.Put(7, 0)
	if v, ok := m.Get(7); !ok || v != 0 {
		t.Fatal("stored zero value not distinguishable from absent")
	}
	if _, ok := m.Get(8); ok {
		t.Fatal("absent key reported present")
	}
}

func TestFlatSetUnionDisjointAndOverlap(t *testing.T) {
	a, b := NewUint64FlatSet(), NewUint64FlatSet()
	for i := uint64(0); i < 10; i++ {
		a.Insert(i * 2)
	}
	a.UnionWith(b) // empty rhs
	if a.Len() != 10 {
		t.Fatal("union with empty changed size")
	}
	for i := uint64(0); i < 10; i++ {
		b.Insert(i*2 + 1)
	}
	a.UnionWith(b)
	if a.Len() != 20 {
		t.Fatalf("disjoint union len=%d", a.Len())
	}
	prev := uint64(0)
	first := true
	a.Iterate(func(k uint64) bool {
		if !first && k <= prev {
			t.Fatalf("order broken at %d", k)
		}
		prev, first = k, false
		return true
	})
}

func TestParseImplNames(t *testing.T) {
	for _, name := range []string{"HashSet", "SwissMap", "BitSet", "SparseBitSet", "FlatSet", "BitMap", "Array"} {
		impl, ok := ParseImpl(name)
		if !ok || impl.String() != name {
			t.Fatalf("ParseImpl(%q) = %v, %v", name, impl, ok)
		}
	}
	if _, ok := ParseImpl("Bogus"); ok {
		t.Fatal("bogus impl parsed")
	}
}

func TestDenseClassification(t *testing.T) {
	for _, d := range []Impl{ImplBitSet, ImplSparseBitSet, ImplBitMap} {
		if !d.Dense() {
			t.Fatalf("%v not dense", d)
		}
	}
	for _, nd := range []Impl{ImplHashSet, ImplSwissMap, ImplArray} {
		if nd.Dense() {
			t.Fatalf("%v dense", nd)
		}
	}
}
