package main

import (
	"math/rand"
	"time"

	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// microKeys is the key count of each per-operation measurement:
// large enough to leave the timer's resolution behind, small enough
// to stay in cache like the suite's ScaleSmall collections.
const microKeys = 4096

// microReps is how many times each measurement repeats; the metric is
// the median.
const microReps = 31

// runMicro times single operations of the engine collections the VM
// dispatches to, on seeded keys: sparse u64 keys for the hash tables
// and the enumeration, a shuffled dense range for the idx-keyed ones.
// Each value is ns per operation.
func runMicro(seed int64, tr *tracer, m *metrics) {
	rng := rand.New(rand.NewSource(seed))
	sparse := make([]interp.Val, microKeys)
	for i := range sparse {
		sparse[i] = interp.IntV(rng.Uint64())
	}
	dense := make([]interp.Val, microKeys)
	for i, k := range rng.Perm(microKeys) {
		dense[i] = interp.IntV(uint64(k))
	}
	newColl := func(ct *ir.CollType, sel collections.Impl) interp.Coll {
		ct.Sel = sel
		return interp.NewCollFor(ct, collections.ImplHashSet, collections.ImplHashMap)
	}
	// timeOps returns the median ns per key of body over fresh state.
	timeOps := func(name string, keys []interp.Val, fresh func() any, body func(state any, k interp.Val)) float64 {
		var per []float64
		for r := 0; r < microReps; r++ {
			state := fresh()
			start := time.Now()
			for _, k := range keys {
				body(state, k)
			}
			d := time.Since(start)
			tr.add(0, "coll."+name, "micro", start, d)
			per = append(per, float64(d.Nanoseconds())/microKeys)
		}
		return median(per)
	}
	filledMap := func(sel collections.Impl, keys []interp.Val) func() any {
		return func() any {
			c := newColl(ir.MapOf(ir.TU64, ir.TU64), sel).(interp.RMap)
			for _, k := range keys {
				c.Put(k, k)
			}
			return c
		}
	}
	filledSet := func(sel collections.Impl, keys []interp.Val) func() any {
		return func() any {
			c := newColl(ir.SetOf(ir.TU64), sel).(interp.RSet)
			for _, k := range keys {
				c.Insert(k)
			}
			return c
		}
	}
	emptyMap := func(sel collections.Impl) func() any { return filledMap(sel, nil) }
	emptySet := func(sel collections.Impl) func() any { return filledSet(sel, nil) }
	get := func(s any, k interp.Val) { s.(interp.RMap).Get(k) }
	put := func(s any, k interp.Val) { s.(interp.RMap).Put(k, k) }
	has := func(s any, k interp.Val) { s.(interp.RSet).Has(k) }
	insert := func(s any, k interp.Val) { s.(interp.RSet).Insert(k) }

	m.set("coll.hashmap.get_ns", "ns", timeOps("hashmap", sparse, filledMap(collections.ImplHashMap, sparse), get))
	m.set("coll.hashmap.put_ns", "ns", timeOps("hashmap", sparse, emptyMap(collections.ImplHashMap), put))
	m.set("coll.hashset.has_ns", "ns", timeOps("hashset", sparse, filledSet(collections.ImplHashSet, sparse), has))
	m.set("coll.hashset.insert_ns", "ns", timeOps("hashset", sparse, emptySet(collections.ImplHashSet), insert))
	m.set("coll.bitmap.get_ns", "ns", timeOps("bitmap", dense, filledMap(collections.ImplBitMap, dense), get))
	m.set("coll.bitmap.put_ns", "ns", timeOps("bitmap", dense, emptyMap(collections.ImplBitMap), put))
	m.set("coll.bitset.has_ns", "ns", timeOps("bitset", dense, filledSet(collections.ImplBitSet, dense), has))
	m.set("coll.bitset.insert_ns", "ns", timeOps("bitset", dense, emptySet(collections.ImplBitSet), insert))
	m.set("coll.sparsebitset.insert_ns", "ns", timeOps("sparsebitset", dense, emptySet(collections.ImplSparseBitSet), insert))

	filledEnum := func() any {
		e := interp.NewEnum()
		for _, k := range sparse {
			e.Add(k)
		}
		return e
	}
	m.set("coll.enum.enc_ns", "ns", timeOps("enum", sparse, filledEnum, func(s any, k interp.Val) { s.(*interp.Enum).Enc(k) }))
	m.set("coll.enum.add_ns", "ns", timeOps("enum", sparse, func() any { return interp.NewEnum() }, func(s any, k interp.Val) { s.(*interp.Enum).Add(k) }))
	// Dec takes identifiers, which Add issued as 0..microKeys-1: decode
	// them in the dense keys' shuffled order.
	m.set("coll.enum.dec_ns", "ns", timeOps("enum", dense, filledEnum, func(s any, k interp.Val) { s.(*interp.Enum).Dec(uint32(k.I)) }))
}
