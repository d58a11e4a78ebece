package collections

// SwissSet is a Swiss-table set (Table I row Set/SwissSet): a SwissMap
// with struct{} values, which cost zero modeled bytes, so its
// footprint is one control byte plus one key per slot (the 1+bits(T)
// of Table I).
type SwissSet[K any] struct {
	m SwissMap[K, struct{}]
}

// NewSwissSet returns an empty Swiss-table set.
func NewSwissSet[K any](hash func(K) uint64, eq func(K, K) bool) *SwissSet[K] {
	return &SwissSet[K]{SwissMap[K, struct{}]{hash: hash, eq: eq}}
}

// NewUint64SwissSet returns a Swiss-table set keyed by uint64.
func NewUint64SwissSet() *SwissSet[uint64] {
	return NewSwissSet(HashUint64, EqUint64)
}

// Has reports whether k is in the set.
func (s *SwissSet[K]) Has(k K) bool { return s.m.Has(k) }

// Insert adds k, reporting whether it was newly added.
func (s *SwissSet[K]) Insert(k K) bool { return s.m.Put(k, struct{}{}) }

// Remove deletes k, reporting whether it was present.
func (s *SwissSet[K]) Remove(k K) bool { return s.m.Remove(k) }

// Len returns the number of elements.
func (s *SwissSet[K]) Len() int { return s.m.Len() }

// Iterate calls f for each element until f returns false.
func (s *SwissSet[K]) Iterate(f func(k K) bool) {
	s.m.Iterate(func(k K, _ struct{}) bool { return f(k) })
}

// Clear removes all elements, keeping capacity.
func (s *SwissSet[K]) Clear() { s.m.Clear() }

// Bytes models the storage footprint.
func (s *SwissSet[K]) Bytes() int64 { return s.m.Bytes() }

// Kind reports the implementation.
func (s *SwissSet[K]) Kind() Impl { return ImplSwissSet }
