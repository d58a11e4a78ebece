package collections

// SwissMap is a Swiss-table map (Table I row Map/SwissMap): open
// addressing over groups of 8 slots whose 7-bit hash fingerprints are
// matched a word at a time, with parallel key and value arrays.
// Expected O(1) operations with one extra control byte per slot.
type SwissMap[K, V any] struct {
	hash func(K) uint64
	eq   func(K, K) bool
	ctrl []uint8
	keys []K
	vals []V
	n    int   // live entries
	used int   // live + tombstones
	slot int64 // modeled bytes of one slot, set when the table grows
}

// NewSwissMap returns an empty Swiss-table map.
func NewSwissMap[K, V any](hash func(K) uint64, eq func(K, K) bool) *SwissMap[K, V] {
	return &SwissMap[K, V]{hash: hash, eq: eq}
}

// NewUint64SwissMap returns a Swiss-table map keyed by uint64.
func NewUint64SwissMap[V any]() *SwissMap[uint64, V] {
	return NewSwissMap[uint64, V](HashUint64, EqUint64)
}

func (m *SwissMap[K, V]) groups() int { return len(m.ctrl) / swissGroup }

func (m *SwissMap[K, V]) find(k K) (slot int, found bool) {
	if len(m.ctrl) == 0 {
		return -1, false
	}
	h1, h2 := splitHash(m.hash(k))
	seq := newProbeSeq(h1, m.groups())
	firstTomb := -1
	for gi := 0; gi < m.groups(); gi++ {
		g := seq.next()
		word := loadGroup(m.ctrl, g)
		for mm := matchByte(word, h2); mm != 0; {
			i := g*swissGroup + nextMatch(&mm)
			if m.eq(m.keys[i], k) {
				return i, true
			}
		}
		if firstTomb < 0 {
			if mm := matchByte(word, ctrlTomb); mm != 0 {
				firstTomb = g*swissGroup + nextMatch(&mm)
			}
		}
		if mm := matchEmpty(word); mm != 0 {
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return g*swissGroup + nextMatch(&mm), false
		}
	}
	return firstTomb, false
}

func (m *SwissMap[K, V]) grow() {
	newCap := 2 * swissGroup
	if len(m.ctrl) > 0 {
		newCap = len(m.ctrl)
		if m.n*8 >= len(m.ctrl)*7/2 {
			newCap = len(m.ctrl) * 2
		}
	}
	m.slot = 1 + ElemBytes[K]() + ElemBytes[V]()
	oldCtrl, oldKeys, oldVals := m.ctrl, m.keys, m.vals
	m.ctrl = make([]uint8, newCap)
	for i := range m.ctrl {
		m.ctrl[i] = ctrlEmpty
	}
	m.keys = make([]K, newCap)
	m.vals = make([]V, newCap)
	m.n, m.used = 0, 0
	for i, c := range oldCtrl {
		if c&0x80 == 0 {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// Get returns the value stored under k.
func (m *SwissMap[K, V]) Get(k K) (V, bool) {
	slot, found := m.find(k)
	if !found {
		var zero V
		return zero, false
	}
	return m.vals[slot], true
}

// Put stores v under k, overwriting any previous value, and reports
// whether k was newly added.
func (m *SwissMap[K, V]) Put(k K, v V) bool {
	if len(m.ctrl) == 0 || (m.used+1)*8 > len(m.ctrl)*7 { // 7/8 full or tombstoned
		m.grow()
	}
	slot, found := m.find(k)
	if found {
		m.vals[slot] = v
		return false
	}
	if m.ctrl[slot] != ctrlTomb {
		m.used++
	}
	_, h2 := splitHash(m.hash(k))
	m.ctrl[slot] = h2
	m.keys[slot] = k
	m.vals[slot] = v
	m.n++
	return true
}

// Has reports whether k is present.
func (m *SwissMap[K, V]) Has(k K) bool {
	_, found := m.find(k)
	return found
}

// Remove deletes k, reporting whether it was present.
func (m *SwissMap[K, V]) Remove(k K) bool {
	slot, found := m.find(k)
	if !found {
		return false
	}
	var zeroK K
	var zeroV V
	m.keys[slot] = zeroK
	m.vals[slot] = zeroV
	m.ctrl[slot] = ctrlTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *SwissMap[K, V]) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *SwissMap[K, V]) Iterate(f func(k K, v V) bool) {
	for i, c := range m.ctrl {
		if c&0x80 == 0 {
			if !f(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}

// Clear removes all entries, keeping capacity.
func (m *SwissMap[K, V]) Clear() {
	var zeroK K
	var zeroV V
	for i := range m.ctrl {
		m.ctrl[i] = ctrlEmpty
		m.keys[i] = zeroK
		m.vals[i] = zeroV
	}
	m.n, m.used = 0, 0
}

// Bytes models the storage footprint: control byte + key + value per
// slot (the 1+bits(K)+bits(T) of Table I).
func (m *SwissMap[K, V]) Bytes() int64 { return int64(len(m.ctrl)) * m.slot }

// Kind reports the implementation.
func (m *SwissMap[K, V]) Kind() Impl { return ImplSwissMap }
