package collections

import "sort"

// FlatSet is a sorted-array set (Table I row Set/FlatSet): O(log n)
// membership, O(n) insert/remove shifts, exactly n·bits(T) storage,
// and cache-friendly in-order iteration — which is why the paper finds
// it ~5× faster than hash sets to iterate and a strong pick for hot
// linear unions (RQ4).
type FlatSet[K any] struct {
	cmp   func(K, K) int
	elems []K
	elem  int64 // modeled bytes of one element
}

// NewFlatSet returns an empty flat set ordered by cmp.
func NewFlatSet[K any](cmp func(K, K) int) *FlatSet[K] {
	return &FlatSet[K]{cmp: cmp, elem: ElemBytes[K]()}
}

// NewUint64FlatSet returns a flat set of uint64 keys.
func NewUint64FlatSet() *FlatSet[uint64] { return NewFlatSet(CmpUint64) }

// search returns the insertion point for k and whether k is present.
func (s *FlatSet[K]) search(k K) (int, bool) {
	i := sort.Search(len(s.elems), func(i int) bool {
		return s.cmp(s.elems[i], k) >= 0
	})
	return i, i < len(s.elems) && s.cmp(s.elems[i], k) == 0
}

// Has reports whether k is in the set.
func (s *FlatSet[K]) Has(k K) bool {
	_, found := s.search(k)
	return found
}

// Insert adds k, reporting whether it was newly added.
func (s *FlatSet[K]) Insert(k K) bool {
	i, found := s.search(k)
	if found {
		return false
	}
	var zero K
	s.elems = append(grow(s.elems, len(s.elems)+1), zero)
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = k
	return true
}

// Remove deletes k, reporting whether it was present.
func (s *FlatSet[K]) Remove(k K) bool {
	i, found := s.search(k)
	if !found {
		return false
	}
	copy(s.elems[i:], s.elems[i+1:])
	s.elems = s.elems[:len(s.elems)-1]
	return true
}

// Len returns the number of elements.
func (s *FlatSet[K]) Len() int { return len(s.elems) }

// Iterate calls f for each element in sorted order until f returns
// false.
func (s *FlatSet[K]) Iterate(f func(k K) bool) {
	for _, k := range s.elems {
		if !f(k) {
			return
		}
	}
}

// Clear removes all elements, keeping capacity.
func (s *FlatSet[K]) Clear() { s.elems = s.elems[:0] }

// UnionWith merges other into s with a linear merge when other is also
// a FlatSet, the hot-path union the paper selects FlatSet for.
func (s *FlatSet[K]) UnionWith(other *FlatSet[K]) {
	if other.Len() == 0 {
		return
	}
	merged := make([]K, 0, len(s.elems)+len(other.elems))
	i, j := 0, 0
	for i < len(s.elems) && j < len(other.elems) {
		switch c := s.cmp(s.elems[i], other.elems[j]); {
		case c < 0:
			merged = append(merged, s.elems[i])
			i++
		case c > 0:
			merged = append(merged, other.elems[j])
			j++
		default:
			merged = append(merged, s.elems[i])
			i++
			j++
		}
	}
	merged = append(merged, s.elems[i:]...)
	merged = append(merged, other.elems[j:]...)
	s.elems = merged
}

// Bytes models the storage footprint: n·bits(T).
func (s *FlatSet[K]) Bytes() int64 { return int64(cap(s.elems)) * s.elem }

// Kind reports the implementation.
func (s *FlatSet[K]) Kind() Impl { return ImplFlatSet }
