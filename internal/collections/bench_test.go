package collections

import "testing"

// Conventional per-implementation microbenchmarks (the raw material of
// the Table III comparison; run with
// `go test -bench . ./internal/collections`).

const benchN = 1 << 14

func benchKeys() []uint64 {
	ks := make([]uint64, benchN)
	for i := range ks {
		ks[i] = Mix64(uint64(i))
	}
	return ks
}

func benchIDs() []uint32 {
	ids := make([]uint32, benchN)
	for i := range ids {
		ids[i] = uint32((i * 2654435761) % (2 * benchN))
	}
	return ids
}

func BenchmarkHashSetInsert(b *testing.B) {
	ks := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &HashMap[uint64, struct{}]{}
		for _, k := range ks {
			s.Put(k, struct{}{})
		}
	}
}

func BenchmarkSwissSetInsert(b *testing.B) {
	ks := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewUint64SwissSet()
		for _, k := range ks {
			s.Insert(k)
		}
	}
}

func BenchmarkBitSetInsert(b *testing.B) {
	ids := benchIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewBitSet()
		for _, k := range ids {
			s.Insert(k)
		}
	}
}

func BenchmarkSparseBitSetInsert(b *testing.B) {
	ids := benchIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSparseBitSet()
		for _, k := range ids {
			s.Insert(k)
		}
	}
}

func BenchmarkHashMapReadHit(b *testing.B) {
	ks := benchKeys()
	m := &HashMap[uint64, uint64]{}
	for i, k := range ks {
		m.Put(k, uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(ks[i%benchN])
		sink += v
	}
	_ = sink
}

func BenchmarkSwissMapReadHit(b *testing.B) {
	ks := benchKeys()
	m := NewUint64SwissMap[uint64]()
	for i, k := range ks {
		m.Put(k, uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(ks[i%benchN])
		sink += v
	}
	_ = sink
}

func BenchmarkBitMapReadHit(b *testing.B) {
	ids := benchIDs()
	m := NewBitMap[uint64]()
	for i, k := range ids {
		m.Put(k, uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(ids[i%benchN])
		sink += v
	}
	_ = sink
}

func BenchmarkBitSetUnion(b *testing.B) {
	x, y := NewBitSet(), NewBitSet()
	for i := uint32(0); i < benchN; i++ {
		if i%2 == 0 {
			x.Insert(i)
		} else {
			y.Insert(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}

func BenchmarkHashSetUnion(b *testing.B) {
	x, y := &HashMap[uint64, struct{}]{}, &HashMap[uint64, struct{}]{}
	for i := uint64(0); i < benchN; i++ {
		if i%2 == 0 {
			x.Put(Mix64(i), struct{}{})
		} else {
			y.Put(Mix64(i), struct{}{})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y.Iterate(func(k uint64, _ struct{}) bool { x.Put(k, struct{}{}); return true })
	}
}

func BenchmarkBitSetIterateDense(b *testing.B) {
	s := NewBitSet()
	for i := uint32(0); i < benchN; i++ {
		s.Insert(i * 2)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		s.Iterate(func(k uint32) bool { sink += uint64(k); return true })
	}
	_ = sink
}

func BenchmarkBitSetIterateSparse(b *testing.B) {
	s := NewBitSet()
	for i := uint32(0); i < benchN; i++ {
		s.Insert(i * 4096) // the RQ4 occupancy hazard
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		s.Iterate(func(k uint32) bool { sink += uint64(k); return true })
	}
	_ = sink
}

func BenchmarkEnumStyleInternDedup(b *testing.B) {
	// The enc-or-add pattern of the Enum runtime: repeated interning
	// of a small working set.
	ks := make([]uint64, benchN)
	for i := range ks {
		ks[i] = Mix64(uint64(i % 512))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &HashMap[uint64, uint32]{}
		next := uint32(0)
		for _, k := range ks {
			if _, ok := m.Get(k); !ok {
				m.Put(k, next)
				next++
			}
		}
	}
}
