// Collections: using the implementation library directly (the
// selection space of the paper's Table I). Shows the memory and union
// behavior that drives ADE's wins — and the sparse-occupancy hazard
// behind the RQ4 case study.
//
// Run with: go run ./examples/collections
package main

import (
	"fmt"
	"time"

	"memoir/internal/collections"
)

func main() {
	const n = 1 << 16

	// The same dense identifier domain stored five ways.
	fmt.Printf("%-14s %12s %12s\n", "set impl", "bytes", "union time")
	// A hash set is a HashMap with empty values.
	hash := &collections.HashMap[uint64, struct{}]{}
	swiss := collections.NewUint64SwissSet()
	flat := collections.NewUint64FlatSet()
	bits := collections.NewBitSet()
	roar := collections.NewSparseBitSet()
	for i := uint64(0); i < n; i++ {
		hash.Put(i, struct{}{})
		swiss.Insert(i)
		bits.Insert(uint32(i))
		roar.Insert(uint32(i))
	}
	for i := uint64(0); i < n; i += 2 {
		flat.Insert(i)
	}

	other := collections.NewBitSet()
	for i := uint32(0); i < n; i += 3 {
		other.Insert(i)
	}
	start := time.Now()
	bits.UnionWith(other)
	bitUnion := time.Since(start)

	hashOther := &collections.HashMap[uint64, struct{}]{}
	for i := uint64(0); i < n; i += 3 {
		hashOther.Put(i, struct{}{})
	}
	start = time.Now()
	hashOther.Iterate(func(k uint64, _ struct{}) bool { hash.Put(k, struct{}{}); return true })
	hashUnion := time.Since(start)

	fmt.Printf("%-14s %12d %12v\n", "HashSet", hash.Bytes(), hashUnion)
	fmt.Printf("%-14s %12d %12s\n", "SwissSet", swiss.Bytes(), "-")
	fmt.Printf("%-14s %12d %12s\n", "FlatSet", flat.Bytes(), "-")
	fmt.Printf("%-14s %12d %12v\n", "BitSet", bits.Bytes(), bitUnion)
	fmt.Printf("%-14s %12d %12s\n", "SparseBitSet", roar.Bytes(), "-")

	// The RQ4 hazard: one element at a huge identifier.
	lone := collections.NewBitSet()
	lone.Insert(20_000_000)
	loneRoar := collections.NewSparseBitSet()
	loneRoar.Insert(20_000_000)
	fmt.Printf("\none element at id 20M: BitSet=%d bytes, SparseBitSet=%d bytes\n",
		lone.Bytes(), loneRoar.Bytes())
}
