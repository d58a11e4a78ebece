package collections

// SwissSet is a Swiss-table set: open addressing over groups of 8
// slots whose 7-bit hash fingerprints are matched a word at a time
// (Table I row Set/SwissSet). Expected O(1) insert and remove with
// one extra control byte per slot.
type SwissSet[K any] struct {
	swissCore
	hash func(K) uint64
	eq   func(K, K) bool
	keys []K
}

// NewSwissSet returns an empty Swiss-table set.
func NewSwissSet[K any](hash func(K) uint64, eq func(K, K) bool) *SwissSet[K] {
	return &SwissSet[K]{hash: hash, eq: eq}
}

// NewUint64SwissSet returns a Swiss-table set keyed by uint64.
func NewUint64SwissSet() *SwissSet[uint64] {
	return NewSwissSet(HashUint64, EqUint64)
}

func (s *SwissSet[K]) groups() int { return len(s.ctrl) / swissGroup }

func (s *SwissSet[K]) find(k K) (slot int, found bool) {
	if len(s.ctrl) == 0 {
		return -1, false
	}
	h1, h2 := splitHash(s.hash(k))
	seq := newProbeSeq(h1, s.groups())
	firstTomb := -1
	for gi := 0; gi < s.groups(); gi++ {
		g := seq.next()
		word := loadGroup(s.ctrl, g)
		for m := matchByte(word, h2); m != 0; {
			i := g*swissGroup + nextMatch(&m)
			if s.eq(s.keys[i], k) {
				return i, true
			}
		}
		if firstTomb < 0 {
			if m := matchByte(word, ctrlTomb); m != 0 {
				firstTomb = g*swissGroup + nextMatch(&m)
			}
		}
		if m := matchEmpty(word); m != 0 {
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return g*swissGroup + nextMatch(&m), false
		}
	}
	return firstTomb, false
}

func (s *SwissSet[K]) grow() {
	newCap := 2 * swissGroup
	if len(s.ctrl) > 0 {
		newCap = len(s.ctrl)
		if s.n*8 >= len(s.ctrl)*7/2 {
			newCap = len(s.ctrl) * 2
		}
	}
	oldCtrl, oldKeys := s.ctrl, s.keys
	s.ctrl = make([]uint8, newCap)
	for i := range s.ctrl {
		s.ctrl[i] = ctrlEmpty
	}
	s.keys = make([]K, newCap)
	s.n, s.used = 0, 0
	for i, c := range oldCtrl {
		if c&0x80 == 0 {
			s.Insert(oldKeys[i])
		}
	}
}

// Has reports whether k is in the set.
func (s *SwissSet[K]) Has(k K) bool {
	_, found := s.find(k)
	return found
}

// Insert adds k, reporting whether it was newly added.
func (s *SwissSet[K]) Insert(k K) bool {
	if s.needGrow() {
		s.grow()
	}
	slot, found := s.find(k)
	if found {
		return false
	}
	if s.ctrl[slot] != ctrlTomb {
		s.used++
	}
	_, h2 := splitHash(s.hash(k))
	s.ctrl[slot] = h2
	s.keys[slot] = k
	s.n++
	return true
}

// Remove deletes k, reporting whether it was present.
func (s *SwissSet[K]) Remove(k K) bool {
	slot, found := s.find(k)
	if !found {
		return false
	}
	var zero K
	s.keys[slot] = zero
	s.ctrl[slot] = ctrlTomb
	s.n--
	return true
}

// Len returns the number of elements.
func (s *SwissSet[K]) Len() int { return s.n }

// Iterate calls f for each element until f returns false.
func (s *SwissSet[K]) Iterate(f func(k K) bool) {
	for i, c := range s.ctrl {
		if c&0x80 == 0 {
			if !f(s.keys[i]) {
				return
			}
		}
	}
}

// Clear removes all elements, keeping capacity.
func (s *SwissSet[K]) Clear() {
	var zero K
	for i := range s.ctrl {
		s.ctrl[i] = ctrlEmpty
		s.keys[i] = zero
	}
	s.n, s.used = 0, 0
}

// Bytes models the storage footprint: one control byte plus one key
// per slot (the 1+bits(T) of Table I).
func (s *SwissSet[K]) Bytes() int64 {
	return int64(len(s.ctrl)) + int64(len(s.keys))*ElemBytes[K]()
}

// Kind reports the implementation.
func (s *SwissSet[K]) Kind() Impl { return ImplSwissSet }
