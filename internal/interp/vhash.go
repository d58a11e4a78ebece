package interp

import "memoir/internal/collections"

// This file holds Val-specialized twins of the generic open-addressing
// tables in internal/collections. The generic HashMap/HashSet reach
// their hash and equality through function pointers, which costs an
// indirect call per probe; the tables below inline HashVal/EqVal into
// the probe loop instead. Everything observable is kept bit-identical
// to collections.HashMap[Val,·]/HashSet[Val] instantiated with
// HashVal/EqVal: the same slot states, load factor, initial capacity,
// growth schedule, probe sequence, tombstone handling and storage
// model — so op counts, the memory model and even iteration order are
// indistinguishable between the two table families.

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

// ValMap is collections.HashMap[Val, Val] with the hash inlined: the
// runtime table behind Map{HashMap} values on both engines.
type ValMap struct {
	keys  []Val
	vals  []Val
	state []uint8
	n     int
	used  int
}

func (m *ValMap) find(k Val) (idx int, found bool) {
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

func (m *ValMap) grow() {
	newCap := 8
	if len(m.keys) > 0 {
		newCap = len(m.keys)
		if m.n*vLoadDen >= len(m.keys)*vLoadNum/2 {
			newCap = len(m.keys) * 2
		}
	}
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]Val, newCap)
	m.vals = make([]Val, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == vSlotFull {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// Get returns the value stored under k.
func (m *ValMap) Get(k Val) (Val, bool) {
	idx, found := m.find(k)
	if !found {
		return Val{}, false
	}
	return m.vals[idx], true
}

// Put stores v under k, overwriting any previous value.
func (m *ValMap) Put(k, v Val) {
	if len(m.keys) == 0 || (m.used+1)*vLoadDen > len(m.keys)*vLoadNum {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return
	}
	if m.state[idx] != vSlotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = vSlotFull
	m.n++
}

// Has reports whether k is present.
func (m *ValMap) Has(k Val) bool {
	_, found := m.find(k)
	return found
}

// Remove deletes k, reporting whether it was present.
func (m *ValMap) Remove(k Val) bool {
	idx, found := m.find(k)
	if !found {
		return false
	}
	m.keys[idx] = Val{}
	m.vals[idx] = Val{}
	m.state[idx] = vSlotTomb
	m.n--
	return true
}

// Len returns the number of entries.
func (m *ValMap) Len() int { return m.n }

// Iterate calls f for each entry until f returns false.
func (m *ValMap) Iterate(f func(k, v Val) bool) {
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
func (m *ValMap) States() []uint8 { return m.state }

// SlotAt returns the entry in slot i, which must be SlotFull.
func (m *ValMap) SlotAt(i int) (Val, Val) { return m.keys[i], m.vals[i] }

// Clear removes all entries, keeping capacity.
func (m *ValMap) Clear() {
	for i := range m.state {
		m.state[i] = vSlotEmpty
		m.keys[i] = Val{}
		m.vals[i] = Val{}
	}
	m.n, m.used = 0, 0
}

// Bytes models the storage footprint.
func (m *ValMap) Bytes() int64 {
	return int64(len(m.keys))*ValModelBytes + int64(len(m.vals))*ValModelBytes + int64(len(m.state))
}

// Kind reports the implementation.
func (m *ValMap) Kind() collections.Impl { return collections.ImplHashMap }

// ValSet is collections.HashSet[Val] with the hash inlined: the
// runtime table behind Set{HashSet} values on both engines.
type ValSet struct {
	keys  []Val
	state []uint8
	n     int
	used  int
}

func (s *ValSet) find(k Val) (idx int, found bool) {
	if len(s.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(s.keys) - 1)
	i := HashVal(k) & mask
	firstTomb := -1
	for {
		switch s.state[i] {
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
			if EqVal(s.keys[i], k) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (s *ValSet) grow() {
	newCap := 8
	if len(s.keys) > 0 {
		// Double only when live entries dominate; otherwise rehashing
		// at the same size flushes tombstones.
		newCap = len(s.keys)
		if s.n*vLoadDen >= len(s.keys)*vLoadNum/2 {
			newCap = len(s.keys) * 2
		}
	}
	oldKeys, oldState := s.keys, s.state
	s.keys = make([]Val, newCap)
	s.state = make([]uint8, newCap)
	s.n, s.used = 0, 0
	for i, st := range oldState {
		if st == vSlotFull {
			s.Insert(oldKeys[i])
		}
	}
}

// Has reports whether k is in the set.
func (s *ValSet) Has(k Val) bool {
	_, found := s.find(k)
	return found
}

// Insert adds k, reporting whether it was newly added.
func (s *ValSet) Insert(k Val) bool {
	if len(s.keys) == 0 || (s.used+1)*vLoadDen > len(s.keys)*vLoadNum {
		s.grow()
	}
	idx, found := s.find(k)
	if found {
		return false
	}
	if s.state[idx] != vSlotTomb {
		s.used++
	}
	s.keys[idx] = k
	s.state[idx] = vSlotFull
	s.n++
	return true
}

// Remove deletes k, reporting whether it was present.
func (s *ValSet) Remove(k Val) bool {
	idx, found := s.find(k)
	if !found {
		return false
	}
	s.keys[idx] = Val{}
	s.state[idx] = vSlotTomb
	s.n--
	return true
}

// Len returns the number of elements.
func (s *ValSet) Len() int { return s.n }

// Iterate calls f for each element until f returns false.
func (s *ValSet) Iterate(f func(k Val) bool) {
	for i, st := range s.state {
		if st == vSlotFull {
			if !f(s.keys[i]) {
				return
			}
		}
	}
}

// States exposes the slot-state array for inlined iteration; see
// (*ValMap).States.
func (s *ValSet) States() []uint8 { return s.state }

// SlotAt returns the element in slot i, which must be SlotFull.
func (s *ValSet) SlotAt(i int) Val { return s.keys[i] }

// Clear removes all elements, keeping capacity.
func (s *ValSet) Clear() {
	for i := range s.state {
		s.state[i] = vSlotEmpty
		s.keys[i] = Val{}
	}
	s.n, s.used = 0, 0
}

// Bytes models the storage footprint: key array plus state bytes.
func (s *ValSet) Bytes() int64 {
	return int64(len(s.keys))*ValModelBytes + int64(len(s.state))
}

// Kind reports the implementation.
func (s *ValSet) Kind() collections.Impl { return collections.ImplHashSet }

// valU32Map is collections.HashMap[Val, uint32] with the hash
// inlined: the encode half of runtime enumerations.
type valU32Map struct {
	keys  []Val
	vals  []uint32
	state []uint8
	n     int
	used  int
}

func (m *valU32Map) find(k Val) (idx int, found bool) {
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

func (m *valU32Map) grow() {
	newCap := 8
	if len(m.keys) > 0 {
		newCap = len(m.keys)
		if m.n*vLoadDen >= len(m.keys)*vLoadNum/2 {
			newCap = len(m.keys) * 2
		}
	}
	oldKeys, oldVals, oldState := m.keys, m.vals, m.state
	m.keys = make([]Val, newCap)
	m.vals = make([]uint32, newCap)
	m.state = make([]uint8, newCap)
	m.n, m.used = 0, 0
	for i, st := range oldState {
		if st == vSlotFull {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

func (m *valU32Map) Get(k Val) (uint32, bool) {
	idx, found := m.find(k)
	if !found {
		return 0, false
	}
	return m.vals[idx], true
}

func (m *valU32Map) Put(k Val, v uint32) {
	if len(m.keys) == 0 || (m.used+1)*vLoadDen > len(m.keys)*vLoadNum {
		m.grow()
	}
	idx, found := m.find(k)
	if found {
		m.vals[idx] = v
		return
	}
	if m.state[idx] != vSlotTomb {
		m.used++
	}
	m.keys[idx] = k
	m.vals[idx] = v
	m.state[idx] = vSlotFull
	m.n++
}

func (m *valU32Map) Bytes() int64 {
	return int64(len(m.keys))*ValModelBytes + int64(len(m.vals))*4 + int64(len(m.state))
}
