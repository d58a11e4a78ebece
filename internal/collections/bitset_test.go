package collections

import "testing"

func TestBitSetUnionWith(t *testing.T) {
	a, b := NewBitSet(), NewBitSet()
	for _, k := range []uint32{1, 5, 64, 1000} {
		a.Insert(k)
	}
	for _, k := range []uint32{5, 63, 2000} {
		b.Insert(k)
	}
	a.UnionWith(b)
	want := []uint32{1, 5, 63, 64, 1000, 2000}
	if a.Len() != len(want) {
		t.Fatalf("Len=%d want %d", a.Len(), len(want))
	}
	var got []uint32
	a.Iterate(func(k uint32) bool {
		got = append(got, k)
		return true
	})
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// b unchanged.
	if b.Len() != 3 {
		t.Fatalf("b.Len=%d want 3", b.Len())
	}
}

func TestBitSetUnionGrowsLeft(t *testing.T) {
	a, b := NewBitSet(), NewBitSet()
	a.Insert(1)
	b.Insert(100000)
	a.UnionWith(b)
	if !a.Has(1) || !a.Has(100000) || a.Len() != 2 {
		t.Fatalf("union did not grow: len=%d", a.Len())
	}
}

func TestBitSetIterateOrderAndStop(t *testing.T) {
	s := NewBitSet()
	for _, k := range []uint32{9, 3, 77, 3} {
		s.Insert(k)
	}
	var got []uint32
	s.Iterate(func(k uint32) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("got %v, want [3 9]", got)
	}
}

func TestBitSetGrowthFootprint(t *testing.T) {
	s := NewBitSet()
	if s.Bytes() != 0 {
		t.Fatalf("empty bitset Bytes=%d", s.Bytes())
	}
	s.Insert(1 << 20)
	// Storage is proportional to the largest key, not the cardinality
	// — exactly the sparse-enumeration hazard RQ4 investigates.
	if s.Bytes() < (1<<20)/8 {
		t.Fatalf("Bytes=%d, want >= %d", s.Bytes(), (1<<20)/8)
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d want 1", s.Len())
	}
}

func TestBitSetRemoveAbsent(t *testing.T) {
	s := NewBitSet()
	if s.Remove(12345) {
		t.Fatal("Remove of absent key reported true")
	}
	s.Insert(7)
	if s.Remove(1 << 30) {
		t.Fatal("Remove past end reported true")
	}
	if !s.Remove(7) || s.Len() != 0 {
		t.Fatal("Remove of present key failed")
	}
}

func TestSeqBasics(t *testing.T) {
	s := NewSeq[uint64]()
	for i := uint64(0); i < 5; i++ {
		s.Append(i * 10)
	}
	s.InsertAt(2, 999)
	if s.Len() != 6 || s.Get(2) != 999 || s.Get(3) != 20 {
		t.Fatalf("after InsertAt: %v", s.Slice())
	}
	s.RemoveAt(2)
	if s.Len() != 5 || s.Get(2) != 20 {
		t.Fatalf("after RemoveAt: %v", s.Slice())
	}
	s.Set(0, 42)
	if s.Get(0) != 42 {
		t.Fatal("Set failed")
	}
	sum := uint64(0)
	s.Iterate(func(i int, v uint64) bool {
		sum += v
		return true
	})
	if sum != 42+10+20+30+40 {
		t.Fatalf("sum=%d", sum)
	}
	if s.Bytes() < 5*8 {
		t.Fatalf("Bytes=%d", s.Bytes())
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestFlatSetOrderedIterationAndUnion(t *testing.T) {
	s := NewUint64FlatSet()
	for _, k := range []uint64{9, 1, 5, 5, 3} {
		s.Insert(k)
	}
	var got []uint64
	s.Iterate(func(k uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	o := NewUint64FlatSet()
	for _, k := range []uint64{2, 5, 10} {
		o.Insert(k)
	}
	s.UnionWith(o)
	if s.Len() != 6 || !s.Has(2) || !s.Has(10) {
		t.Fatalf("union len=%d", s.Len())
	}
}

func TestHashSetTombstoneReuse(t *testing.T) {
	s := newHashSet()
	for i := uint64(0); i < 100; i++ {
		s.Insert(Mix64(i))
	}
	for i := uint64(0); i < 100; i += 2 {
		s.Remove(Mix64(i))
	}
	for i := uint64(0); i < 100; i++ {
		s.Insert(Mix64(i))
	}
	if s.Len() != 100 {
		t.Fatalf("Len=%d want 100", s.Len())
	}
	for i := uint64(0); i < 100; i++ {
		if !s.Has(Mix64(i)) {
			t.Fatalf("missing %d", i)
		}
	}
}

func TestSwissSetCollisionHeavy(t *testing.T) {
	// A constant hash forces every key down the same probe sequence.
	s := NewSwissSet(func(uint64) uint64 { return 0xdeadbeef }, EqUint64)
	for i := uint64(0); i < 200; i++ {
		if !s.Insert(i) {
			t.Fatalf("Insert(%d) reported duplicate", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if !s.Has(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Has(1000) {
		t.Fatal("phantom element")
	}
	for i := uint64(0); i < 200; i += 3 {
		if !s.Remove(i) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if s.Has(i) != (i%3 != 0) {
			t.Fatalf("Has(%d) wrong after removals", i)
		}
	}
}

// TestHashSetCollisionHeavy drives long probe chains and tombstone
// reuse with keys whose Mix64 hashes share their low 9 bits, so every
// key starts its probe at slot 7 of any table of up to 512 slots.
func TestHashSetCollisionHeavy(t *testing.T) {
	const n, mask = 200, 511
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if Mix64(k)&mask == 7 {
			keys = append(keys, k)
		}
	}
	s := newHashSet()
	for _, k := range keys {
		s.Insert(k)
	}
	if len(s.keys) != mask+1 {
		t.Fatalf("table has %d slots, want %d", len(s.keys), mask+1)
	}
	// The keys fill one probe chain: n distinct slots from slot 7 on.
	firstTomb := mask + 1
	for i, k := range keys {
		idx, found := s.find(k)
		if !found || idx < 7 || idx >= 7+n {
			t.Fatalf("key %d at slot %d (found %v), want one in [7, %d)", i, idx, found, 7+n)
		}
		if i%2 == 0 && idx < firstTomb {
			firstTomb = idx
		}
	}
	for i := 0; i < n; i += 2 {
		s.Remove(keys[i])
	}
	for i, k := range keys {
		if s.Has(k) != (i%2 == 1) {
			t.Fatalf("Has(key %d) wrong", i)
		}
	}
	// Re-inserting fills the tombstones from the chain's head: no slot
	// is newly used and the table does not grow.
	used := s.used
	for i := n - 2; i >= 0; i -= 2 {
		if !s.Insert(keys[i]) {
			t.Fatalf("Insert(key %d) reported duplicate", i)
		}
	}
	if s.used != used || len(s.keys) != mask+1 || s.Len() != n {
		t.Fatalf("after reuse: used %d, slots %d, Len %d; want %d, %d, %d", s.used, len(s.keys), s.Len(), used, mask+1, n)
	}
	if idx, _ := s.find(keys[n-2]); idx != firstTomb {
		t.Fatalf("first re-inserted key at slot %d, want the chain's first tombstone, %d", idx, firstTomb)
	}
}
