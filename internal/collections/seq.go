package collections

// Seq is a resizable array, the only sequence implementation in the
// selection space (Table I row Seq<T>/Array). Reads and writes are
// O(1); positional insert and remove are O(n).
type Seq[T any] struct {
	elems []T
	elem  int64 // modeled bytes of one element, set with the storage
}

// NewSeq returns an empty sequence.
func NewSeq[T any]() *Seq[T] { return &Seq[T]{} }

// Len returns the number of elements.
func (s *Seq[T]) Len() int { return len(s.elems) }

// Get returns the element at index i.
func (s *Seq[T]) Get(i int) T { return s.elems[i] }

// Set overwrites the element at index i.
func (s *Seq[T]) Set(i int, v T) { s.elems[i] = v }

// reserve makes room for one more element. ElemBytes is a type
// assertion at run time in shape-instantiated code, so it is paid when
// the storage grows, not on every Bytes call.
func (s *Seq[T]) reserve() {
	if len(s.elems) == cap(s.elems) {
		s.elems = grow(s.elems, len(s.elems)+1)
		s.elem = ElemBytes[T]()
	}
}

// Append adds v at the end and returns its index.
func (s *Seq[T]) Append(v T) int {
	s.reserve()
	s.elems = append(s.elems, v)
	return len(s.elems) - 1
}

// InsertAt inserts v before index i (i may equal Len to append).
func (s *Seq[T]) InsertAt(i int, v T) {
	var zero T
	s.reserve()
	s.elems = append(s.elems, zero)
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = v
}

// RemoveAt deletes the element at index i, shifting the tail left.
func (s *Seq[T]) RemoveAt(i int) {
	copy(s.elems[i:], s.elems[i+1:])
	s.elems = s.elems[:len(s.elems)-1]
}

// Clear removes all elements, keeping capacity.
func (s *Seq[T]) Clear() { s.elems = s.elems[:0] }

// Iterate calls f for each element in order until f returns false.
func (s *Seq[T]) Iterate(f func(i int, v T) bool) {
	for i, v := range s.elems {
		if !f(i, v) {
			return
		}
	}
}

// Slice exposes the backing slice (read-only by convention).
func (s *Seq[T]) Slice() []T { return s.elems }

// Bytes models the storage footprint: capacity times element size.
func (s *Seq[T]) Bytes() int64 { return int64(cap(s.elems)) * s.elem }

// Kind reports the implementation.
func (s *Seq[T]) Kind() Impl { return ImplArray }
