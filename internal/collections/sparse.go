package collections

import (
	"math/bits"
	"sort"
)

// SparseBitSet is a Roaring-style compressed bitset (Table I row
// Set/SparseBitSet). The 32-bit key space is chunked by its high 16
// bits; each chunk stores its low 16 bits in whichever container is
// cheapest — a sorted uint16 array (≤ arrayMax entries), an
// uncompressed 65536-bit bitmap, or run-length-encoded intervals.
// This is the hybrid layout of the Roaring bitmap library the paper
// links against.
type SparseBitSet struct {
	keys []uint16
	ctrs []container
	n    int
}

const arrayMax = 4096 // entries before an array chunk converts to a bitmap

// NewSparseBitSet returns an empty compressed bitset.
func NewSparseBitSet() *SparseBitSet { return &SparseBitSet{} }

type container interface {
	has(lo uint16) bool
	// insert returns the (possibly converted) container and whether lo
	// was newly added.
	insert(lo uint16) (container, bool)
	// remove returns the (possibly converted) container and whether lo
	// was present.
	remove(lo uint16) (container, bool)
	card() int
	// iterate calls f(base|lo) in increasing order; returns false if f
	// stopped early.
	iterate(base uint32, f func(uint32) bool) bool
	// unionWith returns a container holding the union with other.
	unionWith(other container) container
	clone() container
	bytes() int64
}

func (s *SparseBitSet) chunk(hi uint16) (int, bool) {
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= hi })
	return i, i < len(s.keys) && s.keys[i] == hi
}

// Has reports whether k is in the set.
func (s *SparseBitSet) Has(k uint32) bool {
	i, ok := s.chunk(uint16(k >> 16))
	return ok && s.ctrs[i].has(uint16(k))
}

// Insert adds k, reporting whether it was newly added.
func (s *SparseBitSet) Insert(k uint32) bool {
	hi, lo := uint16(k>>16), uint16(k)
	i, ok := s.chunk(hi)
	if !ok {
		s.keys = append(s.keys, 0)
		s.ctrs = append(s.ctrs, nil)
		copy(s.keys[i+1:], s.keys[i:])
		copy(s.ctrs[i+1:], s.ctrs[i:])
		s.keys[i] = hi
		s.ctrs[i] = arrayContainer{lo}
		s.n++
		return true
	}
	c, added := s.ctrs[i].insert(lo)
	s.ctrs[i] = c
	if added {
		s.n++
	}
	return added
}

// Remove deletes k, reporting whether it was present.
func (s *SparseBitSet) Remove(k uint32) bool {
	hi, lo := uint16(k>>16), uint16(k)
	i, ok := s.chunk(hi)
	if !ok {
		return false
	}
	c, removed := s.ctrs[i].remove(lo)
	if !removed {
		return false
	}
	s.n--
	if c.card() == 0 {
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
		s.ctrs = append(s.ctrs[:i], s.ctrs[i+1:]...)
	} else {
		s.ctrs[i] = c
	}
	return true
}

// Len returns the number of elements.
func (s *SparseBitSet) Len() int { return s.n }

// Iterate calls f for each element in increasing order until f returns
// false.
func (s *SparseBitSet) Iterate(f func(k uint32) bool) {
	for i, hi := range s.keys {
		if !s.ctrs[i].iterate(uint32(hi)<<16, f) {
			return
		}
	}
}

// Clear removes all elements.
func (s *SparseBitSet) Clear() {
	s.keys = s.keys[:0]
	s.ctrs = s.ctrs[:0]
	s.n = 0
}

// UnionWith merges other into s chunk by chunk. When every chunk of
// other is already a chunk of s, the chunks merge in place, and a
// union that adds nothing allocates nothing.
func (s *SparseBitSet) UnionWith(other *SparseBitSet) {
	if holdsAll(s.keys, other.keys) {
		j := 0
		for i, hi := range s.keys {
			if j < len(other.keys) && other.keys[j] == hi {
				s.ctrs[i] = mergeInto(s.ctrs[i], other.ctrs[j])
				j++
			}
		}
		s.recount()
		return
	}
	keys := make([]uint16, 0, len(s.keys)+len(other.keys))
	ctrs := make([]container, 0, len(s.keys)+len(other.keys))
	i, j := 0, 0
	for i < len(s.keys) && j < len(other.keys) {
		switch {
		case s.keys[i] < other.keys[j]:
			keys = append(keys, s.keys[i])
			ctrs = append(ctrs, s.ctrs[i])
			i++
		case s.keys[i] > other.keys[j]:
			keys = append(keys, other.keys[j])
			ctrs = append(ctrs, other.ctrs[j].clone())
			j++
		default:
			keys = append(keys, s.keys[i])
			ctrs = append(ctrs, s.ctrs[i].unionWith(other.ctrs[j]))
			i++
			j++
		}
	}
	for ; i < len(s.keys); i++ {
		keys = append(keys, s.keys[i])
		ctrs = append(ctrs, s.ctrs[i])
	}
	for ; j < len(other.keys); j++ {
		keys = append(keys, other.keys[j])
		ctrs = append(ctrs, other.ctrs[j].clone())
	}
	s.keys, s.ctrs = keys, ctrs
	s.recount()
}

// holdsAll reports whether every element of the sorted o is in the
// sorted a.
func holdsAll(a, o []uint16) bool {
	i := 0
	for _, x := range o {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			return false
		}
	}
	return true
}

func (s *SparseBitSet) recount() {
	n := 0
	for _, c := range s.ctrs {
		n += c.card()
	}
	s.n = n
}

// mergeInto returns dst ∪ src for a container dst that its set owns,
// reusing dst where the result fits: a bitmap ORs in place, and an
// array that already holds every element of src is kept when its
// capacity (its modeled size) is the one the allocating merge gives.
func mergeInto(dst, src container) container {
	switch d := dst.(type) {
	case arrayContainer:
		if o, ok := src.(arrayContainer); ok && cap(d) == len(d)+len(o) && holdsAll(d, o) {
			return dst
		}
	case *bitmapContainer:
		switch o := src.(type) {
		case *bitmapContainer:
			for i := range d.words {
				d.words[i] |= o.words[i]
			}
		case arrayContainer:
			for _, lo := range o {
				d.words[lo/64] |= 1 << (lo % 64)
			}
		default:
			return dst.unionWith(src)
		}
		d.recount()
		return d
	}
	return dst.unionWith(src)
}

// RunOptimize converts chunks to run-length encoding where that is the
// smallest representation, as Roaring's runOptimize does.
func (s *SparseBitSet) RunOptimize() {
	for i, c := range s.ctrs {
		runs := countRuns(c)
		// A run container costs 4 bytes per run; compare against the
		// current representation.
		if int64(runs)*4 < c.bytes() {
			s.ctrs[i] = toRunContainer(c, runs)
		}
	}
}

// Bytes models the storage footprint: chunk index plus container
// payloads (the O(k) compressed storage of Table I).
func (s *SparseBitSet) Bytes() int64 {
	total := int64(len(s.keys)) * 2
	for _, c := range s.ctrs {
		total += c.bytes()
	}
	return total
}

// Kind reports the implementation.
func (s *SparseBitSet) Kind() Impl { return ImplSparseBitSet }

// --- array container ---

type arrayContainer []uint16 // sorted

func (a arrayContainer) search(lo uint16) (int, bool) {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= lo })
	return i, i < len(a) && a[i] == lo
}

func (a arrayContainer) has(lo uint16) bool {
	_, ok := a.search(lo)
	return ok
}

func (a arrayContainer) insert(lo uint16) (container, bool) {
	i, ok := a.search(lo)
	if ok {
		return a, false
	}
	if len(a) >= arrayMax {
		b := a.toBitmap()
		c, _ := b.insert(lo)
		return c, true
	}
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = lo
	return a, true
}

func (a arrayContainer) remove(lo uint16) (container, bool) {
	i, ok := a.search(lo)
	if !ok {
		return a, false
	}
	a = append(a[:i], a[i+1:]...)
	return a, true
}

func (a arrayContainer) card() int { return len(a) }

func (a arrayContainer) iterate(base uint32, f func(uint32) bool) bool {
	for _, lo := range a {
		if !f(base | uint32(lo)) {
			return false
		}
	}
	return true
}

func (a arrayContainer) toBitmap() *bitmapContainer {
	b := &bitmapContainer{}
	for _, lo := range a {
		b.words[lo/64] |= 1 << (lo % 64)
	}
	b.n = len(a)
	return b
}

func (a arrayContainer) unionWith(other container) container {
	switch o := other.(type) {
	case arrayContainer:
		merged := make(arrayContainer, 0, len(a)+len(o))
		i, j := 0, 0
		for i < len(a) && j < len(o) {
			switch {
			case a[i] < o[j]:
				merged = append(merged, a[i])
				i++
			case a[i] > o[j]:
				merged = append(merged, o[j])
				j++
			default:
				merged = append(merged, a[i])
				i++
				j++
			}
		}
		merged = append(merged, a[i:]...)
		merged = append(merged, o[j:]...)
		if len(merged) > arrayMax {
			return merged.toBitmap()
		}
		return merged
	default:
		return other.unionWith(a)
	}
}

func (a arrayContainer) clone() container {
	c := make(arrayContainer, len(a))
	copy(c, a)
	return c
}

func (a arrayContainer) bytes() int64 { return int64(cap(a)) * 2 }

// --- bitmap container ---

type bitmapContainer struct {
	words [1024]uint64
	n     int
}

func (b *bitmapContainer) has(lo uint16) bool {
	return b.words[lo/64]&(1<<(lo%64)) != 0
}

func (b *bitmapContainer) insert(lo uint16) (container, bool) {
	w, m := lo/64, uint64(1)<<(lo%64)
	if b.words[w]&m != 0 {
		return b, false
	}
	b.words[w] |= m
	b.n++
	return b, true
}

func (b *bitmapContainer) remove(lo uint16) (container, bool) {
	w, m := lo/64, uint64(1)<<(lo%64)
	if b.words[w]&m == 0 {
		return b, false
	}
	b.words[w] &^= m
	b.n--
	if b.n <= arrayMax/2 {
		return b.toArray(), true
	}
	return b, true
}

func (b *bitmapContainer) toArray() arrayContainer {
	a := make(arrayContainer, 0, b.n)
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			a = append(a, uint16(wi*64+t))
			w &= w - 1
		}
	}
	return a
}

func (b *bitmapContainer) card() int { return b.n }

func (b *bitmapContainer) iterate(base uint32, f func(uint32) bool) bool {
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !f(base | uint32(wi*64+t)) {
				return false
			}
			w &= w - 1
		}
	}
	return true
}

func (b *bitmapContainer) unionWith(other container) container {
	out := &bitmapContainer{words: b.words}
	switch o := other.(type) {
	case *bitmapContainer:
		for i := range out.words {
			out.words[i] |= o.words[i]
		}
	default:
		other.iterate(0, func(k uint32) bool {
			out.words[k/64] |= 1 << (k % 64)
			return true
		})
	}
	out.recount()
	return out
}

func (b *bitmapContainer) recount() {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	b.n = n
}

func (b *bitmapContainer) clone() container {
	c := *b
	return &c
}

func (b *bitmapContainer) bytes() int64 { return 1024 * 8 }

// --- run container ---

// interval16 is a closed interval [start, start+length].
type interval16 struct {
	start, length uint16
}

type runContainer struct {
	runs []interval16
	n    int
}

func (r *runContainer) findRun(lo uint16) (int, bool) {
	i := sort.Search(len(r.runs), func(i int) bool {
		return uint32(r.runs[i].start)+uint32(r.runs[i].length) >= uint32(lo)
	})
	if i < len(r.runs) && r.runs[i].start <= lo {
		return i, true
	}
	return i, false
}

func (r *runContainer) has(lo uint16) bool {
	_, ok := r.findRun(lo)
	return ok
}

func (r *runContainer) insert(lo uint16) (container, bool) {
	i, ok := r.findRun(lo)
	if ok {
		return r, false
	}
	// Try extending a neighboring run, merging if the gap closes.
	prevAdj := i > 0 && uint32(r.runs[i-1].start)+uint32(r.runs[i-1].length)+1 == uint32(lo)
	nextAdj := i < len(r.runs) && r.runs[i].start == lo+1
	switch {
	case prevAdj && nextAdj:
		r.runs[i-1].length += r.runs[i].length + 2
		r.runs = append(r.runs[:i], r.runs[i+1:]...)
	case prevAdj:
		r.runs[i-1].length++
	case nextAdj:
		r.runs[i].start = lo
		r.runs[i].length++
	default:
		r.runs = append(r.runs, interval16{})
		copy(r.runs[i+1:], r.runs[i:])
		r.runs[i] = interval16{start: lo}
	}
	r.n++
	return r, true
}

func (r *runContainer) remove(lo uint16) (container, bool) {
	i, ok := r.findRun(lo)
	if !ok {
		return r, false
	}
	run := r.runs[i]
	switch {
	case run.length == 0:
		r.runs = append(r.runs[:i], r.runs[i+1:]...)
	case lo == run.start:
		r.runs[i].start++
		r.runs[i].length--
	case uint32(lo) == uint32(run.start)+uint32(run.length):
		r.runs[i].length--
	default:
		// Split the run.
		r.runs = append(r.runs, interval16{})
		copy(r.runs[i+1:], r.runs[i:])
		r.runs[i] = interval16{start: run.start, length: lo - run.start - 1}
		r.runs[i+1] = interval16{start: lo + 1, length: uint16(uint32(run.start) + uint32(run.length) - uint32(lo) - 1)}
	}
	r.n--
	return r, true
}

func (r *runContainer) card() int { return r.n }

func (r *runContainer) iterate(base uint32, f func(uint32) bool) bool {
	for _, run := range r.runs {
		for k := uint32(run.start); k <= uint32(run.start)+uint32(run.length); k++ {
			if !f(base | k) {
				return false
			}
		}
	}
	return true
}

func (r *runContainer) unionWith(other container) container {
	// Materialize through a bitmap; precise run-run merge is not a hot
	// path for our workloads.
	b := &bitmapContainer{}
	r.iterate(0, func(k uint32) bool {
		b.words[k/64] |= 1 << (k % 64)
		return true
	})
	out := b.unionWith(other)
	if out.card() <= arrayMax {
		if bc, ok := out.(*bitmapContainer); ok {
			return bc.toArray()
		}
	}
	return out
}

func (r *runContainer) clone() container {
	c := &runContainer{runs: make([]interval16, len(r.runs)), n: r.n}
	copy(c.runs, r.runs)
	return c
}

func (r *runContainer) bytes() int64 { return int64(cap(r.runs)) * 4 }

// countRuns counts maximal runs of consecutive values in c.
func countRuns(c container) int {
	runs := 0
	prev := int64(-2)
	c.iterate(0, func(k uint32) bool {
		if int64(k) != prev+1 {
			runs++
		}
		prev = int64(k)
		return true
	})
	return runs
}

func toRunContainer(c container, runs int) *runContainer {
	r := &runContainer{runs: make([]interval16, 0, runs), n: c.card()}
	prev := int64(-2)
	c.iterate(0, func(k uint32) bool {
		if int64(k) == prev+1 {
			r.runs[len(r.runs)-1].length++
		} else {
			r.runs = append(r.runs, interval16{start: uint16(k)})
		}
		prev = int64(k)
		return true
	})
	return r
}
