package interp

import "memoir/internal/collections"

// This file holds the open-addressing tables behind Map{HashMap} and
// Set{HashSet} values on both engines and behind the encode half of
// runtime enumerations. They are twins of the generic tables in
// internal/collections with the hash and equality inlined into the
// probe loop: the generic HashMap/HashSet reach theirs through
// function pointers, which costs an indirect call per probe. There is
// one table per key representation:
//
//   - ValMap[V] keys on boxed Vals, hashed with HashVal and compared
//     with EqVal: strings, floats and every non-scalar key.
//   - WordMap[V] keys on unboxed integer Words, hashed with Mix64 and
//     compared with ==.
//
// A set is a table with struct{} values, which are charged zero
// modeled bytes, so its footprint is that of collections.HashSet.
//
// Everything observable is bit-identical to collections.HashMap
// instantiated with the matching hash and equality (HashVal/EqVal, or
// Mix64/== over uint64): the same slot states, load factor, initial
// capacity, growth schedule, probe sequence, tombstone handling and
// storage model. HashVal of an integer Val is Mix64 of its bits, so a
// WordMap fed the keys of a ValMap fed IntVs also puts them in the
// same slots: op counts, the memory model and iteration order cannot
// tell the families apart.

// Slot states and load factor, mirroring internal/collections.
const (
	vSlotEmpty uint8 = iota
	vSlotFull
	vSlotTomb
)

const vLoadNum, vLoadDen = 3, 4 // grow at 75% occupancy (full + tombstones)

// SlotFull marks a live slot in the state arrays returned by States:
// the contract behind the VM's inlined table iteration.
const SlotFull = vSlotFull

// rehashCap is the slot count a table of capacity c holding n live
// entries rehashes to: 8 when empty, double when live entries
// dominate, otherwise the same size, which flushes tombstones.
func rehashCap(c, n int) int {
	switch {
	case c == 0:
		return 8
	case n*vLoadDen >= c*vLoadNum/2:
		return 2 * c
	}
	return c
}

// ValMap is collections.HashMap[Val, V] with HashVal and EqVal
// inlined.
type ValMap[V any] struct {
	keys  []Val
	vals  []V
	state []uint8
	n     int
	used  int
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
		case vSlotEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case vSlotTomb:
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
	newCap := rehashCap(len(m.keys), m.n)
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]Val, newCap)
	m.vals = make([]V, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == vSlotFull {
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
	if len(m.keys) == 0 || (m.used+1)*vLoadDen > len(m.keys)*vLoadNum {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return false
	}
	if m.state[idx] != vSlotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = vSlotFull
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
	m.state[idx] = vSlotTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *ValMap[V]) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *ValMap[V]) Iterate(f func(k Val, v V) bool) {
	for i, st := range m.state {
		if st == vSlotFull {
			if !f(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}

// States exposes the slot-state array so callers can inline the
// Iterate scan: visit ascending indices whose state is SlotFull,
// reading entries through SlotAt. Iterate ranges over this same
// array while reading keys/vals live, so the split reproduces its
// behaviour under mid-iteration mutation exactly.
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
func (m *ValMap[V]) Bytes() int64 {
	return int64(len(m.keys))*ValModelBytes +
		int64(len(m.vals))*collections.ElemBytes[V]() +
		int64(len(m.state))
}

// WordMap is collections.HashMap[uint64, V] hashed with Mix64, over
// unboxed integer keys.
type WordMap[V any] struct {
	keys  []Word
	vals  []V
	state []uint8
	n     int
	used  int
}

func (m *WordMap[V]) find(k Word) (idx int, found bool) {
	if len(m.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(m.keys) - 1)
	i := collections.Mix64(uint64(k)) & mask
	firstTomb := -1
	for {
		switch m.state[i] {
		case vSlotEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case vSlotTomb:
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

func (m *WordMap[V]) grow() {
	newCap := rehashCap(len(m.keys), m.n)
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]Word, newCap)
	m.vals = make([]V, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == vSlotFull {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// Get returns the value stored under k.
func (m *WordMap[V]) Get(k Word) (V, bool) {
	idx, found := m.find(k)
	if !found {
		var zero V
		return zero, false
	}
	return m.vals[idx], true
}

// Put stores v under k, overwriting any previous value, and reports
// whether k was newly added.
func (m *WordMap[V]) Put(k Word, v V) bool {
	if len(m.keys) == 0 || (m.used+1)*vLoadDen > len(m.keys)*vLoadNum {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return false
	}
	if m.state[idx] != vSlotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = vSlotFull
	m.n++
	return true
}

// Has reports whether k is present.
func (m *WordMap[V]) Has(k Word) bool {
	_, found := m.find(k)
	return found
}

// Remove deletes k, reporting whether it was present.
func (m *WordMap[V]) Remove(k Word) bool {
	idx, found := m.find(k)
	if !found {
		return false
	}
	var zero V
	m.keys[idx] = 0
	m.vals[idx] = zero
	m.state[idx] = vSlotTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *WordMap[V]) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *WordMap[V]) Iterate(f func(k Word, v V) bool) {
	for i, st := range m.state {
		if st == vSlotFull {
			if !f(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}

// States exposes the slot-state array for inlined iteration; see
// (*ValMap).States.
func (m *WordMap[V]) States() []uint8 { return m.state }

// SlotAt returns the entry in slot i, which must be SlotFull.
func (m *WordMap[V]) SlotAt(i int) (Word, V) { return m.keys[i], m.vals[i] }

// Clear removes all entries, keeping capacity.
func (m *WordMap[V]) Clear() {
	clear(m.state)
	clear(m.keys)
	clear(m.vals)
	m.n, m.used = 0, 0
}

// Bytes models the storage footprint; a Word key is charged like the
// Val it replaces.
func (m *WordMap[V]) Bytes() int64 {
	return int64(len(m.keys))*ValModelBytes +
		int64(len(m.vals))*collections.ElemBytes[V]() +
		int64(len(m.state))
}
