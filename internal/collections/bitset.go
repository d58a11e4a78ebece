package collections

import "math/bits"

// BitSet is a dynamically-resizing contiguous array of bits (Table I
// row Set/BitSet, the paper's boost::dynamic_bitset analog). It is the
// default selection for enumerated sets: O(1) insert/has/remove, k bits
// of storage where k is the largest identifier, and word-wise union.
//
// Dynamic resizing matters because enumerations are populated on the
// fly; Insert grows the bit array to cover its argument.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty bit set.
func NewBitSet() *BitSet { return &BitSet{} }

func (b *BitSet) growTo(k uint32) {
	need := int(k)/64 + 1
	if need <= len(b.words) {
		return
	}
	// Grow geometrically so on-the-fly enumeration growth is amortized.
	newLen := 2 * len(b.words)
	if newLen < need {
		newLen = need
	}
	w := make([]uint64, newLen)
	copy(w, b.words)
	b.words = w
}

// Has reports whether k is in the set.
func (b *BitSet) Has(k uint32) bool {
	w := int(k) / 64
	return w < len(b.words) && b.words[w]&(1<<(k%64)) != 0
}

// Insert adds k, reporting whether it was newly added.
func (b *BitSet) Insert(k uint32) bool {
	b.growTo(k)
	w, m := int(k)/64, uint64(1)<<(k%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.n++
	return true
}

// Remove deletes k, reporting whether it was present.
func (b *BitSet) Remove(k uint32) bool {
	w := int(k) / 64
	if w >= len(b.words) {
		return false
	}
	m := uint64(1) << (k % 64)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.n--
	return true
}

// Len returns the number of elements.
func (b *BitSet) Len() int { return b.n }

// Iterate calls f for each element in increasing order until f returns
// false.
func (b *BitSet) Iterate(f func(k uint32) bool) {
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !f(uint32(wi*64 + t)) {
				return
			}
			w &= w - 1
		}
	}
}

// Clear removes all elements, keeping capacity.
func (b *BitSet) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = 0
}

// UnionWith ORs other into b word by word — the operation the paper
// measures at >5000× a hash set's union (Table III).
func (b *BitSet) UnionWith(other *BitSet) {
	if len(other.words) > len(b.words) {
		w := make([]uint64, len(other.words))
		copy(w, b.words)
		b.words = w
	}
	n := 0
	for i := range b.words {
		if i < len(other.words) {
			b.words[i] |= other.words[i]
		}
		n += bits.OnesCount64(b.words[i])
	}
	b.n = n
}

// Words exposes the backing words (read-only by convention).
func (b *BitSet) Words() []uint64 { return b.words }

// Bytes models the storage footprint: k bits.
func (b *BitSet) Bytes() int64 { return int64(len(b.words)) * 8 }

// Kind reports the implementation.
func (b *BitSet) Kind() Impl { return ImplBitSet }
