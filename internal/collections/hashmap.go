package collections

// HashMap is an open-addressing hash table with linear probing and
// tombstone deletion — the general-purpose baseline map (Table I row
// Map/HashMap). Expected O(1) read, write, insert and remove.
type HashMap[K, V any] struct {
	hash  func(K) uint64
	eq    func(K, K) bool
	keys  []K
	vals  []V
	state []uint8
	n     int
	used  int
}

// NewHashMap returns an empty hash map using the given hash and
// equality functions.
func NewHashMap[K, V any](hash func(K) uint64, eq func(K, K) bool) *HashMap[K, V] {
	return &HashMap[K, V]{hash: hash, eq: eq}
}

// NewUint64HashMap returns a hash map keyed by uint64.
func NewUint64HashMap[V any]() *HashMap[uint64, V] {
	return NewHashMap[uint64, V](HashUint64, EqUint64)
}

func (m *HashMap[K, V]) find(k K) (idx int, found bool) {
	if len(m.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(m.keys) - 1)
	i := m.hash(k) & mask
	firstTomb := -1
	for {
		switch m.state[i] {
		case slotEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case slotTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			if m.eq(m.keys[i], k) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (m *HashMap[K, V]) grow() {
	newCap := 8
	if len(m.keys) > 0 {
		newCap = len(m.keys)
		if m.n*loadDen >= len(m.keys)*loadNum/2 {
			newCap = len(m.keys) * 2
		}
	}
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]K, newCap)
	m.vals = make([]V, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == slotFull {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// Get returns the value stored under k.
func (m *HashMap[K, V]) Get(k K) (V, bool) {
	idx, found := m.find(k)
	if !found {
		var zero V
		return zero, false
	}
	return m.vals[idx], true
}

// Put stores v under k, overwriting any previous value.
func (m *HashMap[K, V]) Put(k K, v V) {
	if len(m.keys) == 0 || (m.used+1)*loadDen > len(m.keys)*loadNum {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return
	}
	if m.state[idx] != slotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = slotFull
	m.n++
}

// Has reports whether k is present.
func (m *HashMap[K, V]) Has(k K) bool {
	_, found := m.find(k)
	return found
}

// Remove deletes k, reporting whether it was present.
func (m *HashMap[K, V]) Remove(k K) bool {
	idx, found := m.find(k)
	if !found {
		return false
	}
	var zeroK K
	var zeroV V
	m.keys[idx] = zeroK
	m.vals[idx] = zeroV
	m.state[idx] = slotTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *HashMap[K, V]) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *HashMap[K, V]) Iterate(f func(k K, v V) bool) {
	for i, st := range m.state {
		if st == slotFull {
			if !f(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}

// Clear removes all entries, keeping capacity.
func (m *HashMap[K, V]) Clear() {
	var zeroK K
	var zeroV V
	for i := range m.state {
		m.state[i] = slotEmpty
		m.keys[i] = zeroK
		m.vals[i] = zeroV
	}
	m.n, m.used = 0, 0
}

// Bytes models the storage footprint.
func (m *HashMap[K, V]) Bytes() int64 {
	return int64(len(m.keys))*ElemBytes[K]() +
		int64(len(m.vals))*ElemBytes[V]() +
		int64(len(m.state))
}

// Kind reports the implementation.
func (m *HashMap[K, V]) Kind() Impl { return ImplHashMap }
