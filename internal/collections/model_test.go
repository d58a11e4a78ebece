package collections

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Model-based tests: every set implementation must behave exactly like
// a reference Go map across random operation sequences, and every map
// implementation like a reference Go map of values.

type setOp struct {
	kind uint8 // 0 insert, 1 remove, 2 has, 3 clear (rare)
	key  uint32
}

func genOps(r *rand.Rand, n int, keyRange uint32) []setOp {
	ops := make([]setOp, n)
	for i := range ops {
		k := uint8(r.Intn(10))
		kind := uint8(0)
		switch {
		case k < 5:
			kind = 0
		case k < 7:
			kind = 1
		case k < 9:
			kind = 2
		default:
			if r.Intn(50) == 0 {
				kind = 3
			} else {
				kind = 2
			}
		}
		ops[i] = setOp{kind: kind, key: r.Uint32() % keyRange}
	}
	return ops
}

func runSetModel(t *testing.T, name string, mk func() Set[uint64], keys func(uint32) uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		s := mk()
		ref := map[uint64]bool{}
		for i, op := range genOps(r, 400, 300) {
			k := keys(op.key)
			switch op.kind {
			case 0:
				got := s.Insert(k)
				want := !ref[k]
				ref[k] = true
				if got != want {
					t.Fatalf("%s trial %d op %d: Insert(%d)=%v want %v", name, trial, i, k, got, want)
				}
			case 1:
				got := s.Remove(k)
				want := ref[k]
				delete(ref, k)
				if got != want {
					t.Fatalf("%s trial %d op %d: Remove(%d)=%v want %v", name, trial, i, k, got, want)
				}
			case 2:
				if got, want := s.Has(k), ref[k]; got != want {
					t.Fatalf("%s trial %d op %d: Has(%d)=%v want %v", name, trial, i, k, got, want)
				}
			case 3:
				s.Clear()
				ref = map[uint64]bool{}
			}
			if s.Len() != len(ref) {
				t.Fatalf("%s trial %d op %d: Len=%d want %d", name, trial, i, s.Len(), len(ref))
			}
		}
		// Full-content check via iteration.
		seen := map[uint64]bool{}
		s.Iterate(func(k uint64) bool {
			if seen[k] {
				t.Fatalf("%s: duplicate element %d in iteration", name, k)
			}
			seen[k] = true
			if !ref[k] {
				t.Fatalf("%s: iteration yielded %d not in reference", name, k)
			}
			return true
		})
		if len(seen) != len(ref) {
			t.Fatalf("%s: iteration yielded %d elements want %d", name, len(seen), len(ref))
		}
	}
}

// sparseKey spreads small ids over a sparse 64-bit domain so hash
// tables see realistic keys.
func sparseKey(k uint32) uint64 { return Mix64(uint64(k)) }

func identKey(k uint32) uint64 { return uint64(k) }

// hashSet is the Set view of a HashMap with empty values, the form
// every hash set takes.
type hashSet struct{ HashMap[uint64, struct{}] }

func newHashSet() *hashSet              { return &hashSet{} }
func (s *hashSet) Insert(k uint64) bool { return s.Put(k, struct{}{}) }
func (s *hashSet) Kind() Impl           { return ImplHashSet }
func (s *hashSet) Iterate(f func(k uint64) bool) {
	s.HashMap.Iterate(func(k uint64, _ struct{}) bool { return f(k) })
}

var _ Set[uint64] = (*hashSet)(nil)

func TestHashSetModel(t *testing.T) {
	runSetModel(t, "HashSet", func() Set[uint64] { return newHashSet() }, sparseKey)
}

func TestSwissSetModel(t *testing.T) {
	runSetModel(t, "SwissSet", func() Set[uint64] { return NewUint64SwissSet() }, sparseKey)
}

func TestFlatSetModel(t *testing.T) {
	runSetModel(t, "FlatSet", func() Set[uint64] { return NewUint64FlatSet() }, sparseKey)
}

type u32SetAdapter struct{ s Set[uint32] }

func (a u32SetAdapter) Has(k uint64) bool    { return a.s.Has(uint32(k)) }
func (a u32SetAdapter) Insert(k uint64) bool { return a.s.Insert(uint32(k)) }
func (a u32SetAdapter) Remove(k uint64) bool { return a.s.Remove(uint32(k)) }
func (a u32SetAdapter) Len() int             { return a.s.Len() }
func (a u32SetAdapter) Clear()               { a.s.Clear() }
func (a u32SetAdapter) Bytes() int64         { return a.s.Bytes() }
func (a u32SetAdapter) Kind() Impl           { return a.s.Kind() }
func (a u32SetAdapter) Iterate(f func(k uint64) bool) {
	a.s.Iterate(func(k uint32) bool { return f(uint64(k)) })
}

func TestBitSetModel(t *testing.T) {
	runSetModel(t, "BitSet", func() Set[uint64] { return u32SetAdapter{NewBitSet()} }, identKey)
}

func TestSparseBitSetModel(t *testing.T) {
	runSetModel(t, "SparseBitSet", func() Set[uint64] { return u32SetAdapter{NewSparseBitSet()} }, identKey)
}

// SparseBitSet with keys spread across many chunks.
func TestSparseBitSetModelWideKeys(t *testing.T) {
	wide := func(k uint32) uint64 { return uint64(k) * 131071 } // spans many high-16 chunks
	runSetModel(t, "SparseBitSet/wide", func() Set[uint64] { return u32SetAdapter{NewSparseBitSet()} }, wide)
}

func runMapModel(t *testing.T, name string, mk func() Map[uint64, uint64], keys func(uint32) uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := mk()
		ref := map[uint64]uint64{}
		for i, op := range genOps(r, 400, 300) {
			k := keys(op.key)
			switch op.kind {
			case 0:
				v := r.Uint64()
				m.Put(k, v)
				ref[k] = v
			case 1:
				got := m.Remove(k)
				_, want := ref[k]
				delete(ref, k)
				if got != want {
					t.Fatalf("%s trial %d op %d: Remove(%d)=%v want %v", name, trial, i, k, got, want)
				}
			case 2:
				gotV, gotOK := m.Get(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					t.Fatalf("%s trial %d op %d: Get(%d)=(%d,%v) want (%d,%v)", name, trial, i, k, gotV, gotOK, wantV, wantOK)
				}
				if m.Has(k) != wantOK {
					t.Fatalf("%s trial %d op %d: Has(%d) mismatch", name, trial, i, k)
				}
			case 3:
				m.Clear()
				ref = map[uint64]uint64{}
			}
			if m.Len() != len(ref) {
				t.Fatalf("%s trial %d op %d: Len=%d want %d", name, trial, i, m.Len(), len(ref))
			}
		}
		n := 0
		m.Iterate(func(k, v uint64) bool {
			if want, ok := ref[k]; !ok || want != v {
				t.Fatalf("%s: iteration yielded (%d,%d), reference has (%d,%v)", name, k, v, want, ok)
			}
			n++
			return true
		})
		if n != len(ref) {
			t.Fatalf("%s: iteration yielded %d entries want %d", name, n, len(ref))
		}
	}
}

type u32MapAdapter struct{ m Map[uint32, uint64] }

func (a u32MapAdapter) Get(k uint64) (uint64, bool) { return a.m.Get(uint32(k)) }
func (a u32MapAdapter) Put(k, v uint64) bool        { return a.m.Put(uint32(k), v) }
func (a u32MapAdapter) Has(k uint64) bool           { return a.m.Has(uint32(k)) }
func (a u32MapAdapter) Remove(k uint64) bool        { return a.m.Remove(uint32(k)) }
func (a u32MapAdapter) Len() int                    { return a.m.Len() }
func (a u32MapAdapter) Clear()                      { a.m.Clear() }
func (a u32MapAdapter) Bytes() int64                { return a.m.Bytes() }
func (a u32MapAdapter) Kind() Impl                  { return a.m.Kind() }
func (a u32MapAdapter) Iterate(f func(k, v uint64) bool) {
	a.m.Iterate(func(k uint32, v uint64) bool { return f(uint64(k), v) })
}

func TestHashMapModel(t *testing.T) {
	runMapModel(t, "HashMap", func() Map[uint64, uint64] { return &HashMap[uint64, uint64]{} }, sparseKey)
}

func TestSwissMapModel(t *testing.T) {
	runMapModel(t, "SwissMap", func() Map[uint64, uint64] { return NewUint64SwissMap[uint64]() }, sparseKey)
}

func TestBitMapModel(t *testing.T) {
	runMapModel(t, "BitMap", func() Map[uint64, uint64] { return u32MapAdapter{NewBitMap[uint64]()} }, identKey)
}

// Property (testing/quick): inserting any slice of keys yields a set
// containing exactly those keys, for every implementation.
func TestQuickSetContainsInserted(t *testing.T) {
	impls := map[string]func() Set[uint64]{
		"HashSet":      func() Set[uint64] { return newHashSet() },
		"SwissSet":     func() Set[uint64] { return NewUint64SwissSet() },
		"FlatSet":      func() Set[uint64] { return NewUint64FlatSet() },
		"BitSet":       func() Set[uint64] { return u32SetAdapter{NewBitSet()} },
		"SparseBitSet": func() Set[uint64] { return u32SetAdapter{NewSparseBitSet()} },
	}
	for name, mk := range impls {
		mk := mk
		f := func(keys []uint32) bool {
			s := mk()
			ref := map[uint64]bool{}
			for _, k := range keys {
				kk := uint64(k % 100000)
				s.Insert(kk)
				ref[kk] = true
			}
			if s.Len() != len(ref) {
				return false
			}
			for k := range ref {
				if !s.Has(k) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property (testing/quick): map Put/Get round-trips the last write for
// every implementation.
func TestQuickMapLastWriteWins(t *testing.T) {
	impls := map[string]func() Map[uint64, uint64]{
		"HashMap":  func() Map[uint64, uint64] { return &HashMap[uint64, uint64]{} },
		"SwissMap": func() Map[uint64, uint64] { return NewUint64SwissMap[uint64]() },
		"BitMap":   func() Map[uint64, uint64] { return u32MapAdapter{NewBitMap[uint64]()} },
	}
	for name, mk := range impls {
		mk := mk
		f := func(pairs []struct{ K, V uint32 }) bool {
			m := mk()
			ref := map[uint64]uint64{}
			for _, p := range pairs {
				k := uint64(p.K % 100000)
				m.Put(k, uint64(p.V))
				ref[k] = uint64(p.V)
			}
			for k, v := range ref {
				got, ok := m.Get(k)
				if !ok || got != v {
					return false
				}
			}
			return m.Len() == len(ref)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
