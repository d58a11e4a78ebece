package collections

// Slot states for the open-addressing tables.
const (
	slotEmpty uint8 = iota
	slotFull
	slotTomb
)

const loadNum, loadDen = 3, 4 // grow at 75% occupancy (full + tombstones)

// HashSet is an open-addressing hash table with linear probing and
// tombstone deletion — the general-purpose baseline set (Table I row
// Set/HashSet). Expected O(1) insert and remove; O(n·bits(T)) storage.
type HashSet[K any] struct {
	hash  func(K) uint64
	eq    func(K, K) bool
	keys  []K
	state []uint8
	n     int // live entries
	used  int // live + tombstones
}

// NewHashSet returns an empty hash set using the given hash and
// equality functions.
func NewHashSet[K any](hash func(K) uint64, eq func(K, K) bool) *HashSet[K] {
	return &HashSet[K]{hash: hash, eq: eq}
}

// NewUint64HashSet returns a hash set keyed by uint64.
func NewUint64HashSet() *HashSet[uint64] {
	return NewHashSet(HashUint64, EqUint64)
}

func (s *HashSet[K]) find(k K) (idx int, found bool) {
	if len(s.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(s.keys) - 1)
	i := s.hash(k) & mask
	firstTomb := -1
	for {
		switch s.state[i] {
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
			if s.eq(s.keys[i], k) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (s *HashSet[K]) grow() {
	newCap := 8
	if len(s.keys) > 0 {
		// Double only when live entries dominate; otherwise rehashing
		// at the same size flushes tombstones.
		newCap = len(s.keys)
		if s.n*loadDen >= len(s.keys)*loadNum/2 {
			newCap = len(s.keys) * 2
		}
	}
	oldKeys, oldState := s.keys, s.state
	s.keys = make([]K, newCap)
	s.state = make([]uint8, newCap)
	s.n, s.used = 0, 0
	for i, st := range oldState {
		if st == slotFull {
			s.Insert(oldKeys[i])
		}
	}
}

// Has reports whether k is in the set.
func (s *HashSet[K]) Has(k K) bool {
	_, found := s.find(k)
	return found
}

// Insert adds k, reporting whether it was newly added.
func (s *HashSet[K]) Insert(k K) bool {
	if len(s.keys) == 0 || (s.used+1)*loadDen > len(s.keys)*loadNum {
		s.grow()
	}
	idx, found := s.find(k)
	if found {
		return false
	}
	if s.state[idx] != slotTomb {
		s.used++
	}
	s.keys[idx] = k
	s.state[idx] = slotFull
	s.n++
	return true
}

// Remove deletes k, reporting whether it was present.
func (s *HashSet[K]) Remove(k K) bool {
	idx, found := s.find(k)
	if !found {
		return false
	}
	var zero K
	s.keys[idx] = zero
	s.state[idx] = slotTomb
	s.n--
	return true
}

// Len returns the number of elements.
func (s *HashSet[K]) Len() int { return s.n }

// Iterate calls f for each element until f returns false.
func (s *HashSet[K]) Iterate(f func(k K) bool) {
	for i, st := range s.state {
		if st == slotFull {
			if !f(s.keys[i]) {
				return
			}
		}
	}
}

// Clear removes all elements, keeping capacity.
func (s *HashSet[K]) Clear() {
	for i := range s.state {
		s.state[i] = slotEmpty
	}
	var zero K
	for i := range s.keys {
		s.keys[i] = zero
	}
	s.n, s.used = 0, 0
}

// Bytes models the storage footprint: key array plus state bytes.
func (s *HashSet[K]) Bytes() int64 {
	return int64(len(s.keys))*ElemBytes[K]() + int64(len(s.state))
}

// Kind reports the implementation.
func (s *HashSet[K]) Kind() Impl { return ImplHashSet }
