package collections

// BitMap is a dense map over enumerated keys (Table I row Map/BitMap):
// a contiguous value array indexed directly by the key, with a
// presence bitset. Reads, writes, inserts and removes are a single
// indexed access; storage is k·(1+bits(T)) where k is the largest key.
type BitMap[V any] struct {
	present BitSet
	vals    []V
	elem    int64 // modeled bytes of one value, set with the storage
}

// NewBitMap returns an empty dense map.
func NewBitMap[V any]() *BitMap[V] { return &BitMap[V]{} }

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
	m.elem = ElemBytes[V]()
}

// Get returns the value stored under k.
func (m *BitMap[V]) Get(k uint32) (V, bool) {
	if !m.present.Has(k) {
		var zero V
		return zero, false
	}
	return m.vals[k], true
}

// Put stores v under k, growing the dense array as needed, and
// reports whether k was newly added.
func (m *BitMap[V]) Put(k uint32, v V) bool {
	m.growTo(k)
	m.vals[k] = v
	return m.present.Insert(k)
}

// Has reports whether k is present.
func (m *BitMap[V]) Has(k uint32) bool { return m.present.Has(k) }

// Present exposes the presence bitset so callers can test membership
// and inline the Iterate scan without knowing V; it must not be
// mutated.
func (m *BitMap[V]) Present() *BitSet { return &m.present }

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

// Bytes models the storage footprint: k·(1+bits(T)).
func (m *BitMap[V]) Bytes() int64 {
	return int64(cap(m.vals))*m.elem + m.present.Bytes()
}

// Kind reports the implementation.
func (m *BitMap[V]) Kind() Impl { return ImplBitMap }
