package collections

// BitMap is a dense map over enumerated keys (Table I row Map/BitMap):
// a contiguous value array indexed directly by the key, with a
// presence bitset. Reads, writes, inserts and removes are a single
// indexed access; storage is k·(1+bits(T)) where k is the largest key.
type BitMap[V any] struct {
	present BitSet
	vals    []V
}

// NewBitMap returns an empty dense map.
func NewBitMap[V any]() *BitMap[V] { return &BitMap[V]{} }

// NewBitMapWithCap returns an empty dense map pre-sized for keys < k.
func NewBitMapWithCap[V any](k uint32) *BitMap[V] {
	return &BitMap[V]{vals: make([]V, 0, k)}
}

func (m *BitMap[V]) growTo(k uint32) {
	if int(k) < len(m.vals) {
		return
	}
	need := int(k) + 1
	if need <= cap(m.vals) {
		m.vals = m.vals[:need]
		return
	}
	newCap := 2 * cap(m.vals)
	if newCap < need {
		newCap = need
	}
	w := make([]V, need, newCap)
	copy(w, m.vals)
	m.vals = w
}

// Get returns the value stored under k.
func (m *BitMap[V]) Get(k uint32) (V, bool) {
	if !m.present.Has(k) {
		var zero V
		return zero, false
	}
	return m.vals[k], true
}

// Put stores v under k, growing the dense array as needed.
func (m *BitMap[V]) Put(k uint32, v V) {
	m.growTo(k)
	m.vals[k] = v
	m.present.Insert(k)
}

// Has reports whether k is present.
func (m *BitMap[V]) Has(k uint32) bool { return m.present.Has(k) }

// Words exposes the presence bitmap's backing words so callers can
// inline the Iterate scan; the words must not be mutated.
func (m *BitMap[V]) Words() []uint64 { return m.present.Words() }

// At returns the value stored under k, which must be present.
func (m *BitMap[V]) At(k uint32) V { return m.vals[k] }

// Remove deletes k, reporting whether it was present.
func (m *BitMap[V]) Remove(k uint32) bool {
	if !m.present.Remove(k) {
		return false
	}
	var zero V
	m.vals[k] = zero
	return true
}

// Len returns the number of entries.
func (m *BitMap[V]) Len() int { return m.present.Len() }

// Iterate calls f for each entry in increasing key order until f
// returns false.
func (m *BitMap[V]) Iterate(f func(k uint32, v V) bool) {
	stopped := false
	m.present.Iterate(func(k uint32) bool {
		if !f(k, m.vals[k]) {
			stopped = true
			return false
		}
		return true
	})
	_ = stopped
}

// Clear removes all entries, keeping capacity.
func (m *BitMap[V]) Clear() {
	var zero V
	m.present.Iterate(func(k uint32) bool {
		m.vals[k] = zero
		return true
	})
	m.present.Clear()
}

// WordCount reports the number of presence-bitset words, the unit of
// iteration scan work.
func (m *BitMap[V]) WordCount() int { return len(m.present.Words()) }

// Bytes models the storage footprint: k·(1+bits(T)).
func (m *BitMap[V]) Bytes() int64 {
	return int64(cap(m.vals))*elemBytes[V]() + m.present.Bytes()
}

// Kind reports the implementation.
func (m *BitMap[V]) Kind() Impl { return ImplBitMap }
