// Package collections provides from-scratch implementations of every
// collection in the ADE selection space (paper Table I): a resizable
// sequence, an open-addressing hash map (a hash set is one with empty
// values), Swiss-table sets and maps, a sorted-array flat set, a
// dynamic bitset, a Roaring-style compressed sparse bitset, and a
// dense bitmap (array-backed map).
//
// All implementations report a modeled storage footprint via Bytes(),
// which the interpreter uses for peak-resident-size accounting, and are
// written against the stdlib only.
//
// HashMap, the open-addressing table the engines run, is keyed by
// integers so its hash and comparison compile inline; a hash set is a
// HashMap with struct{} values. The Swiss tables and FlatSet take
// explicit hash, equality or comparison functions so the same code
// serves both Go client types and the interpreter's runtime values.
// Dense containers (BitSet, SparseBitSet, BitMap) are keyed by uint32
// identifiers, the contiguous domain that data enumeration
// manufactures.
package collections

// Impl identifies a concrete collection implementation, mirroring the
// Selection column of the paper's Table I.
type Impl uint8

const (
	ImplNone Impl = iota
	ImplArray
	ImplHashSet
	ImplFlatSet
	ImplSwissSet
	ImplBitSet
	ImplSparseBitSet
	ImplHashMap
	ImplSwissMap
	ImplBitMap
)

var implNames = [...]string{
	ImplNone:         "•",
	ImplArray:        "Array",
	ImplHashSet:      "HashSet",
	ImplFlatSet:      "FlatSet",
	ImplSwissSet:     "SwissSet",
	ImplBitSet:       "BitSet",
	ImplSparseBitSet: "SparseBitSet",
	ImplHashMap:      "HashMap",
	ImplSwissMap:     "SwissMap",
	ImplBitMap:       "BitMap",
}

func (i Impl) String() string {
	if int(i) < len(implNames) {
		return implNames[i]
	}
	return "Impl(?)"
}

// Dense reports whether the implementation requires an enumerated
// (contiguous integer) key domain.
func (i Impl) Dense() bool {
	switch i {
	case ImplBitSet, ImplSparseBitSet, ImplBitMap:
		return true
	}
	return false
}

// SparseAccess reports whether keyed accesses on the implementation
// count as sparse (hash probes and sorted-array searches) rather than
// dense (direct identifier indexing). This is the classification both
// engines' measurement layers and the telemetry recorder share.
func SparseAccess(i Impl) bool {
	switch i {
	case ImplHashSet, ImplSwissSet, ImplFlatSet, ImplHashMap, ImplSwissMap:
		return true
	}
	return false
}

// ParseImpl resolves a selection name as written in a
// `#pragma ade select(...)` directive.
func ParseImpl(name string) (Impl, bool) {
	for i, n := range implNames {
		if n == name && Impl(i) != ImplNone {
			return Impl(i), true
		}
	}
	return ImplNone, false
}

// Set is the common interface of all set implementations.
type Set[K any] interface {
	Has(k K) bool
	// Insert adds k and reports whether it was newly added.
	Insert(k K) bool
	// Remove deletes k and reports whether it was present.
	Remove(k K) bool
	Len() int
	// Iterate calls f for each element until f returns false.
	Iterate(f func(k K) bool)
	Clear()
	// Bytes models the storage footprint of the container.
	Bytes() int64
	Kind() Impl
}

// Map is the common interface of all map implementations.
type Map[K, V any] interface {
	Get(k K) (V, bool)
	// Put stores v under k and reports whether k was newly added.
	Put(k K, v V) bool
	Has(k K) bool
	Remove(k K) bool
	Len() int
	// Iterate calls f for each entry until f returns false.
	Iterate(f func(k K, v V) bool)
	Clear()
	Bytes() int64
	Kind() Impl
}

// Mix64 finalizes a 64-bit value with the splitmix64 avalanche
// function. It is the default integer hash.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashUint64 hashes a uint64 key.
func HashUint64(x uint64) uint64 { return Mix64(x) }

// HashString hashes a string key with 64-bit FNV-1a followed by an
// avalanche step.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return Mix64(h)
}

// EqUint64 is the equality function for uint64 keys.
func EqUint64(a, b uint64) bool { return a == b }

// CmpUint64 is the three-way comparison for uint64 keys.
func CmpUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
