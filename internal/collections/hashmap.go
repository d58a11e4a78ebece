package collections

// Slot states of the open-addressing tables: HashMap here and the
// interpreter's ValMap, which share this layout, load factor and
// growth schedule.
const (
	SlotEmpty uint8 = iota
	SlotFull
	SlotTomb
)

const loadNum, loadDen = 3, 4 // grow at 75% occupancy (full + tombstones)

// Crowded reports whether a table of slots slots, used of them live or
// tombstoned, must rehash before it takes one more key.
func Crowded(used, slots int) bool {
	return slots == 0 || (used+1)*loadDen > slots*loadNum
}

// RehashCap is the slot count a table of capacity c holding n live
// entries rehashes to: 8 when empty, double when live entries
// dominate, otherwise the same size, which flushes tombstones.
func RehashCap(c, n int) int {
	switch {
	case c == 0:
		return 8
	case n*loadDen >= c*loadNum/2:
		return 2 * c
	}
	return c
}

// HashMap is an open-addressing hash table with linear probing and
// tombstone deletion over integer keys — the general-purpose baseline
// (Table I rows Map/HashMap and, with struct{} values, Set/HashSet).
// Expected O(1) read, write, insert and remove.
//
// Keys hash with Mix64 and compare with ==. The ~uint64 constraint
// lets the compiler inline both into the probe loop; a hash reached
// through a function pointer costs an indirect call per probe. A
// struct{} value is charged zero modeled bytes, so a set's footprint
// is its keys plus one state byte per slot.
type HashMap[K ~uint64, V any] struct {
	keys  []K
	vals  []V
	state []uint8
	n     int   // live entries
	used  int   // live + tombstones
	slot  int64 // modeled bytes of one slot, set when the table grows
}

func (m *HashMap[K, V]) find(k K) (idx int, found bool) {
	if len(m.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(m.keys) - 1)
	i := Mix64(uint64(k)) & mask
	firstTomb := -1
	for {
		switch m.state[i] {
		case SlotEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case SlotTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			if m.keys[i] == k {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (m *HashMap[K, V]) grow() {
	newCap := RehashCap(len(m.keys), m.n)
	// ElemBytes is a type assertion at run time in shape-instantiated
	// code, so it is paid here, not on every Bytes call.
	m.slot = ElemBytes[K]() + ElemBytes[V]() + 1
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]K, newCap)
	m.vals = make([]V, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == SlotFull {
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

// Put stores v under k, overwriting any previous value, and reports
// whether k was newly added.
func (m *HashMap[K, V]) Put(k K, v V) bool {
	if Crowded(m.used, len(m.keys)) {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return false
	}
	if m.state[idx] != SlotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = SlotFull
	m.n++
	return true
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
	var zero V
	m.keys[idx] = 0
	m.vals[idx] = zero
	m.state[idx] = SlotTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *HashMap[K, V]) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *HashMap[K, V]) Iterate(f func(k K, v V) bool) {
	for i, st := range m.state {
		if st == SlotFull {
			if !f(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}

// States exposes the slot-state array so callers can inline the
// Iterate scan: visit ascending indices whose state is SlotFull,
// reading entries through SlotAt. Iterate ranges over this same array
// while reading keys and values live, so the split reproduces its
// behaviour under mid-iteration mutation exactly.
func (m *HashMap[K, V]) States() []uint8 { return m.state }

// SlotAt returns the entry in slot i, which must be SlotFull.
func (m *HashMap[K, V]) SlotAt(i int) (K, V) { return m.keys[i], m.vals[i] }

// Clear removes all entries, keeping capacity.
func (m *HashMap[K, V]) Clear() {
	clear(m.state)
	clear(m.keys)
	clear(m.vals)
	m.n, m.used = 0, 0
}

// Bytes models the storage footprint: one key, one value and one state
// byte per slot.
func (m *HashMap[K, V]) Bytes() int64 { return int64(len(m.state)) * m.slot }

// Kind reports the implementation.
func (m *HashMap[K, V]) Kind() Impl { return ImplHashMap }
