package collections

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestSparseArrayToBitmapConversion(t *testing.T) {
	s := NewSparseBitSet()
	// All within one chunk; crossing arrayMax forces a bitmap container.
	for i := uint32(0); i <= arrayMax; i++ {
		s.Insert(i * 2)
	}
	if len(s.ctrs) != 1 {
		t.Fatalf("chunks=%d want 1", len(s.ctrs))
	}
	if _, ok := s.ctrs[0].(*bitmapContainer); !ok {
		t.Fatalf("container is %T, want bitmap after exceeding arrayMax", s.ctrs[0])
	}
	if s.Len() != arrayMax+1 {
		t.Fatalf("Len=%d", s.Len())
	}
	for i := uint32(0); i <= arrayMax; i++ {
		if !s.Has(i*2) || s.Has(i*2+1) {
			t.Fatalf("membership wrong at %d", i)
		}
	}
}

func TestSparseBitmapToArrayConversion(t *testing.T) {
	s := NewSparseBitSet()
	for i := uint32(0); i <= arrayMax; i++ {
		s.Insert(i)
	}
	// Remove until cardinality drops to arrayMax/2; expect array again.
	for i := uint32(0); i <= arrayMax/2; i++ {
		s.Remove(i)
	}
	if _, ok := s.ctrs[0].(arrayContainer); !ok {
		t.Fatalf("container is %T, want array after shrinking", s.ctrs[0])
	}
	if s.Len() != arrayMax/2 {
		t.Fatalf("Len=%d want %d", s.Len(), arrayMax/2)
	}
}

func TestSparseChunkLifecycle(t *testing.T) {
	s := NewSparseBitSet()
	s.Insert(5)
	s.Insert(1 << 20)
	s.Insert(1 << 28)
	if len(s.keys) != 3 {
		t.Fatalf("chunks=%d want 3", len(s.keys))
	}
	s.Remove(1 << 20)
	if len(s.keys) != 2 {
		t.Fatalf("empty chunk not removed: %d", len(s.keys))
	}
	var got []uint32
	s.Iterate(func(k uint32) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != 5 || got[1] != 1<<28 {
		t.Fatalf("iterate got %v", got)
	}
}

func TestSparseUnionWith(t *testing.T) {
	a, b := NewSparseBitSet(), NewSparseBitSet()
	for i := uint32(0); i < 100; i++ {
		a.Insert(i * 3)
		b.Insert(i*3 + 70000) // different chunk
	}
	b.Insert(0) // overlap
	a.UnionWith(b)
	if a.Len() != 200 {
		t.Fatalf("Len=%d want 200", a.Len())
	}
	if !a.Has(70000) || !a.Has(297) {
		t.Fatal("union missing members")
	}
	// Mutating a must not corrupt b (containers were cloned).
	a.Remove(70000)
	if !b.Has(70000) {
		t.Fatal("union aliased b's containers")
	}
}

func TestSparseUnionArrayOverflowToBitmap(t *testing.T) {
	a, b := NewSparseBitSet(), NewSparseBitSet()
	for i := uint32(0); i < 3000; i++ {
		a.Insert(i * 2)
		b.Insert(i*2 + 1)
	}
	a.UnionWith(b)
	if a.Len() != 6000 {
		t.Fatalf("Len=%d want 6000", a.Len())
	}
	if _, ok := a.ctrs[0].(*bitmapContainer); !ok {
		t.Fatalf("container is %T, want bitmap after overflowing union", a.ctrs[0])
	}
}

func TestSparseBytesCompression(t *testing.T) {
	dense, sparse := NewBitSet(), NewSparseBitSet()
	// One element at a huge key: BitSet pays for the whole range,
	// SparseBitSet pays one chunk.
	dense.Insert(10_000_000)
	sparse.Insert(10_000_000)
	if sparse.Bytes() >= dense.Bytes()/100 {
		t.Fatalf("sparse=%dB dense=%dB; expected >100x compression", sparse.Bytes(), dense.Bytes())
	}
}

// allocatingUnion is the chunk merge every union took before unions
// merged in place: fresh chunk slices, each shared chunk replaced by
// unionWith's new container, each new chunk cloned.
func allocatingUnion(s, other *SparseBitSet) {
	var keys []uint16
	var ctrs []container
	i, j := 0, 0
	for i < len(s.keys) || j < len(other.keys) {
		switch {
		case j == len(other.keys) || i < len(s.keys) && s.keys[i] < other.keys[j]:
			keys, ctrs = append(keys, s.keys[i]), append(ctrs, s.ctrs[i])
			i++
		case i == len(s.keys) || s.keys[i] > other.keys[j]:
			keys, ctrs = append(keys, other.keys[j]), append(ctrs, other.ctrs[j].clone())
			j++
		default:
			keys, ctrs = append(keys, s.keys[i]), append(ctrs, s.ctrs[i].unionWith(other.ctrs[j]))
			i, j = i+1, j+1
		}
	}
	s.keys, s.ctrs = keys, ctrs
	s.recount()
}

func cloneSparse(s *SparseBitSet) *SparseBitSet {
	c := &SparseBitSet{keys: append([]uint16(nil), s.keys...), n: s.n}
	for _, x := range s.ctrs {
		c.ctrs = append(c.ctrs, x.clone())
	}
	return c
}

// TestSparseUnionInPlaceMatchesAllocating: merging in place leaves the
// same members, container kinds and modeled Bytes as the allocating
// merge, over array and bitmap chunks, repeated unions of an
// unchanged source (the in-place case) and sources that add elements
// or chunks; the source is never modified.
func TestSparseUnionInPlaceMatchesAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fill := func(s *SparseBitSet, n int, span uint32) {
		for i := 0; i < n; i++ {
			s.Insert(r.Uint32() % span)
		}
	}
	for trial := 0; trial < 200; trial++ {
		span := []uint32{300, 1 << 16, 1 << 18}[trial%3]
		a, b := NewSparseBitSet(), NewSparseBitSet()
		fill(a, r.Intn(6000), span)
		fill(b, r.Intn(6000), span)
		ref := cloneSparse(a)
		for round := 0; round < 4; round++ {
			if round == 2 {
				fill(b, r.Intn(50), span) // a source that adds elements
			}
			before, beforeBytes := cloneSparse(b), b.Bytes()
			a.UnionWith(b)
			allocatingUnion(ref, b)
			if a.Len() != ref.Len() || a.Bytes() != ref.Bytes() || len(a.keys) != len(ref.keys) {
				t.Fatalf("trial %d round %d: Len %d/%d Bytes %d/%d chunks %d/%d", trial, round,
					a.Len(), ref.Len(), a.Bytes(), ref.Bytes(), len(a.keys), len(ref.keys))
			}
			for i := range a.ctrs {
				if a.keys[i] != ref.keys[i] || fmt.Sprintf("%T", a.ctrs[i]) != fmt.Sprintf("%T", ref.ctrs[i]) {
					t.Fatalf("trial %d round %d: chunk %d is %d/%T, want %d/%T", trial, round,
						i, a.keys[i], a.ctrs[i], ref.keys[i], ref.ctrs[i])
				}
			}
			var got, want []uint32
			a.Iterate(func(k uint32) bool { got = append(got, k); return true })
			ref.Iterate(func(k uint32) bool { want = append(want, k); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: members differ", trial, round)
			}
			var src, was []uint32
			b.Iterate(func(k uint32) bool { src = append(src, k); return true })
			before.Iterate(func(k uint32) bool { was = append(was, k); return true })
			if !slices.Equal(src, was) || b.Bytes() != beforeBytes {
				t.Fatalf("trial %d round %d: union modified its source", trial, round)
			}
		}
	}
}

// TestSparseUnionNoGrowthAllocatesNothing: once a union has sized the
// destination, repeating it allocates nothing, for array and bitmap
// chunks alike.
func TestSparseUnionNoGrowthAllocatesNothing(t *testing.T) {
	a, b := NewSparseBitSet(), NewSparseBitSet()
	for i := uint32(0); i < 100; i++ {
		a.Insert(i * 7)
		a.Insert(1<<16 + i)
		b.Insert(i * 14)
	}
	for i := uint32(0); i < 5000; i++ {
		a.Insert(5<<16 + i*2)
		b.Insert(5<<16 + i*4)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.UnionWith(b) }); allocs != 0 {
		t.Fatalf("union that adds nothing: %v allocs, want 0", allocs)
	}
}

// TestSparseUnionSizedChunkStillMerges: an array chunk whose capacity
// already fits the source but which lacks one of its elements merges
// instead of being kept.
func TestSparseUnionSizedChunkStillMerges(t *testing.T) {
	a, b, c := NewSparseBitSet(), NewSparseBitSet(), NewSparseBitSet()
	for _, k := range []uint32{1, 2, 3} {
		a.Insert(k)
	}
	b.Insert(1)
	b.Insert(2)
	a.UnionWith(b) // the chunk's capacity is now len(a)+len(b)
	c.Insert(1)
	c.Insert(4)
	ref := cloneSparse(a)
	a.UnionWith(c)
	allocatingUnion(ref, c)
	if !a.Has(4) || a.Len() != 4 || a.Bytes() != ref.Bytes() {
		t.Fatalf("Has(4)=%v Len=%d Bytes=%d, want true 4 %d", a.Has(4), a.Len(), a.Bytes(), ref.Bytes())
	}
}
