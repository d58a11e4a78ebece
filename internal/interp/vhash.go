package interp

import "memoir/internal/collections"

// ValMap is the open-addressing table over boxed Val keys, hashed with
// HashVal and compared with EqVal: the Map{HashMap} and Set{HashSet}
// tables of string, float and every other non-integer key, and the
// encode half of an enumeration over such a domain. Integer keys go in
// collections.HashMap over unboxed Words instead (see NewCollFor).
//
// It stays a table of its own because Val hashing cannot be inlined
// through generics: collections.HashMap hashes with Mix64 under a
// ~uint64 constraint, and a Val hash passed in as a function or a
// type parameter costs an indirect call per probe. Everything else is
// collections.HashMap's: the slot states, load factor, initial
// capacity, growth schedule, probe sequence, tombstone handling and
// storage model. HashVal of an integer Val is Mix64 of its bits, so a
// HashMap over Words fed the keys of a ValMap fed IntVs puts them in
// the same slots: op counts, the memory model and iteration order
// cannot tell the two apart. A set is a table with struct{} values,
// which are charged zero modeled bytes.
type ValMap[V any] struct {
	keys  []Val
	vals  []V
	state []uint8
	n     int
	used  int
	slot  int64 // modeled bytes of one slot, set when the table grows
}

func (m *ValMap[V]) find(k Val) (idx int, found bool) {
	if len(m.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(m.keys) - 1)
	i := HashVal(k) & mask
	firstTomb := -1
	for {
		switch m.state[i] {
		case collections.SlotEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case collections.SlotTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			if EqVal(m.keys[i], k) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (m *ValMap[V]) grow() {
	newCap := collections.RehashCap(len(m.keys), m.n)
	// ElemBytes is a type assertion at run time in shape-instantiated
	// code, so it is paid here, not on every Bytes call.
	m.slot = ValModelBytes + collections.ElemBytes[V]() + 1
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]Val, newCap)
	m.vals = make([]V, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == collections.SlotFull {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// Get returns the value stored under k.
func (m *ValMap[V]) Get(k Val) (V, bool) {
	idx, found := m.find(k)
	if !found {
		var zero V
		return zero, false
	}
	return m.vals[idx], true
}

// Put stores v under k, overwriting any previous value, and reports
// whether k was newly added.
func (m *ValMap[V]) Put(k Val, v V) bool {
	if collections.Crowded(m.used, len(m.keys)) {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return false
	}
	if m.state[idx] != collections.SlotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = collections.SlotFull
	m.n++
	return true
}

// Has reports whether k is present.
func (m *ValMap[V]) Has(k Val) bool {
	_, found := m.find(k)
	return found
}

// Remove deletes k, reporting whether it was present.
func (m *ValMap[V]) Remove(k Val) bool {
	idx, found := m.find(k)
	if !found {
		return false
	}
	var zero V
	m.keys[idx] = Val{}
	m.vals[idx] = zero
	m.state[idx] = collections.SlotTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *ValMap[V]) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *ValMap[V]) Iterate(f func(k Val, v V) bool) {
	for i, st := range m.state {
		if st == collections.SlotFull {
			if !f(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}

// States exposes the slot-state array for inlined iteration; see
// (*collections.HashMap).States.
func (m *ValMap[V]) States() []uint8 { return m.state }

// SlotAt returns the entry in slot i, which must be SlotFull.
func (m *ValMap[V]) SlotAt(i int) (Val, V) { return m.keys[i], m.vals[i] }

// Clear removes all entries, keeping capacity.
func (m *ValMap[V]) Clear() {
	clear(m.state)
	clear(m.keys)
	clear(m.vals)
	m.n, m.used = 0, 0
}

// Bytes models the storage footprint: key and value arrays plus state
// bytes.
func (m *ValMap[V]) Bytes() int64 { return int64(len(m.state)) * m.slot }
