package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// The specialised tables in vhash.go claim to be bit-identical to the
// generic collections tables: ValMap to HashMap/HashSet over Val with
// HashVal/EqVal, WordMap to HashMap/HashSet over Word with Mix64/==.
// These tests drive both families through the same operation
// sequences — growth, removal, tombstone reuse and same-size rehashes
// included — and require identical results, Len, Bytes and iteration
// order after every operation. A WordMap must also occupy exactly the
// slots of a ValMap fed the same keys as IntVs.

type action int

const (
	actInsert action = iota // Put / Insert / Enum.Add
	actRemove
	actLookup // Get+Has / Has / Enum.Enc
	actClear
)

// workload yields the op-th action of a sequence.
type workload struct {
	name string
	next func(r *rand.Rand, op int) (action, Val)
}

const opCount = 4000

// workloads mixes random traffic over small and large key spaces (hits
// and misses, tombstone reuse, repeated doubling) with a sliding
// window that inserts fresh keys and removes old ones, so tombstones
// pile up until the table rehashes at the same size.
func workloads() []workload {
	var out []workload
	for _, space := range []int{16, 300, 3000} {
		space := space
		out = append(out, workload{fmt.Sprintf("random%d", space), func(r *rand.Rand, op int) (action, Val) {
			var k Val
			switch n := r.Intn(space); r.Intn(8) {
			case 0:
				k = FloatV(float64(n) / 4)
			case 1:
				k = StrV(fmt.Sprintf("s%d", n))
			default:
				k = IntV(uint64(n) * 0x9E3779B97F4A7C15)
			}
			switch c := r.Intn(200); {
			case c < 100:
				return actInsert, k
			case c < 160:
				return actRemove, k
			case c < 199:
				return actLookup, k
			}
			return actClear, k
		}})
	}
	const window = 40
	out = append(out, workload{"window", func(r *rand.Rand, op int) (action, Val) {
		i := op / 2
		if op%2 == 0 {
			return actInsert, IntV(uint64(i) * 0x9E3779B97F4A7C15)
		}
		return actRemove, IntV(uint64(i-window) * 0x9E3779B97F4A7C15)
	}})
	return out
}

func sameVal(a, b Val) bool { return a.K == b.K && a.I == b.I && a.Str() == b.Str() }

// tableOps is the surface a table under test and its reference share,
// adapted to one signature: put reports whether the key was new.
type tableOps[K, V any] struct {
	put    func(K, V) bool
	remove func(K) bool
	get    func(K) (V, bool)
	has    func(K) bool
	clear  func()
	len    func() int
	bytes  func() int64
	iter   func(func(K, V) bool)
}

// genericMap adapts a collections.HashMap.
func genericMap[K, V any](m *collections.HashMap[K, V]) tableOps[K, V] {
	return tableOps[K, V]{
		put:    func(k K, v V) bool { had := m.Has(k); m.Put(k, v); return !had },
		remove: m.Remove, get: m.Get, has: m.Has, clear: m.Clear, len: m.Len, bytes: m.Bytes, iter: m.Iterate,
	}
}

// genericSet adapts a collections.HashSet, whose elements map to {}.
func genericSet[K any](s *collections.HashSet[K]) tableOps[K, struct{}] {
	return tableOps[K, struct{}]{
		put:    func(k K, _ struct{}) bool { return s.Insert(k) },
		remove: s.Remove,
		get:    func(k K) (struct{}, bool) { return struct{}{}, s.Has(k) },
		has:    s.Has,
		clear:  s.Clear, len: s.Len, bytes: s.Bytes,
		iter: func(f func(K, struct{}) bool) { s.Iterate(func(k K) bool { return f(k, struct{}{}) }) },
	}
}

func valTable[V any](m *ValMap[V]) tableOps[Val, V] {
	return tableOps[Val, V]{put: m.Put, remove: m.Remove, get: m.Get, has: m.Has, clear: m.Clear, len: m.Len, bytes: m.Bytes, iter: m.Iterate}
}

func wordTable[V any](m *WordMap[V]) tableOps[Word, V] {
	return tableOps[Word, V]{put: m.Put, remove: m.Remove, get: m.Get, has: m.Has, clear: m.Clear, len: m.Len, bytes: m.Bytes, iter: m.Iterate}
}

// entries collects an Iterate-style traversal in order.
func entries[K, V any](iter func(func(k K, v V) bool)) (ks []K, vs []V) {
	iter(func(k K, v V) bool { ks, vs = append(ks, k), append(vs, v); return true })
	return ks, vs
}

// matchTables replays every workload on got and want, built fresh per
// workload, with keys converted by key and the op-th value by val.
func matchTables[K, V any](t *testing.T, newGot, newWant func() tableOps[K, V],
	key func(Val) K, val func(op int) V, same func(a, b K) bool, sameV func(a, b V) bool) {
	t.Helper()
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		got, want := newGot(), newWant()
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", w.name, op)
			act, kv := w.next(r, op)
			k := key(kv)
			switch act {
			case actInsert:
				if g, w := got.put(k, val(op)), want.put(k, val(op)); g != w {
					t.Fatalf("%s: put(%v) added %v, want %v", where, kv, g, w)
				}
			case actRemove:
				if g, w := got.remove(k), want.remove(k); g != w {
					t.Fatalf("%s: remove(%v) = %v, want %v", where, kv, g, w)
				}
			case actLookup:
				gv, gok := got.get(k)
				wv, wok := want.get(k)
				if gok != wok || !sameV(gv, wv) {
					t.Fatalf("%s: get(%v) = %v,%v, want %v,%v", where, kv, gv, gok, wv, wok)
				}
				if g, w := got.has(k), want.has(k); g != w {
					t.Fatalf("%s: has(%v) = %v, want %v", where, kv, g, w)
				}
			case actClear:
				got.clear()
				want.clear()
			}
			if got.len() != want.len() || got.bytes() != want.bytes() {
				t.Fatalf("%s: len/bytes %d/%d, want %d/%d", where, got.len(), got.bytes(), want.len(), want.bytes())
			}
			gk, gv := entries(got.iter)
			wk, wv := entries(want.iter)
			if len(gk) != len(wk) {
				t.Fatalf("%s: iterated %d entries, want %d", where, len(gk), len(wk))
			}
			for i := range gk {
				if !same(gk[i], wk[i]) || !sameV(gv[i], wv[i]) {
					t.Fatalf("%s: iteration order diverged at entry %d", where, i)
				}
			}
		}
	}
}

func asVal(k Val) Val { return k }

// asWord keys the word tables by the workload key's fingerprint, which
// keeps its float and string keys distinct integers.
func asWord(k Val) Word { return Word(k.Bits()) }

func opVal(op int) Val   { return IntV(uint64(op)) }
func opWord(op int) Word { return Word(op) }
func none(int) struct{}  { return struct{}{} }

func eqWord(a, b Word) bool         { return a == b }
func eqNone(_, _ struct{}) bool     { return true }
func hashWord(k Word) uint64        { return collections.Mix64(uint64(k)) }
func newValMap() tableOps[Val, Val] { return valTable(&ValMap[Val]{}) }

func TestValMapMatchesGenericHashMap(t *testing.T) {
	matchTables(t, newValMap,
		func() tableOps[Val, Val] { return genericMap(collections.NewHashMap[Val, Val](HashVal, EqVal)) },
		asVal, opVal, sameVal, sameVal)
}

func TestValSetMatchesGenericHashSet(t *testing.T) {
	matchTables(t,
		func() tableOps[Val, struct{}] { return valTable(&ValMap[struct{}]{}) },
		func() tableOps[Val, struct{}] { return genericSet(collections.NewHashSet[Val](HashVal, EqVal)) },
		asVal, none, sameVal, eqNone)
}

// TestWordMapMatchesGenericHashMap pins both value representations of
// the word-keyed map, and the uint32 one of the enumeration's encode
// half, to collections.HashMap over Word keys hashed with Mix64.
func TestWordMapMatchesGenericHashMap(t *testing.T) {
	matchTables(t,
		func() tableOps[Word, Word] { return wordTable(&WordMap[Word]{}) },
		func() tableOps[Word, Word] { return genericMap(collections.NewHashMap[Word, Word](hashWord, eqWord)) },
		asWord, opWord, eqWord, eqWord)
	matchTables(t,
		func() tableOps[Word, Val] { return wordTable(&WordMap[Val]{}) },
		func() tableOps[Word, Val] { return genericMap(collections.NewHashMap[Word, Val](hashWord, eqWord)) },
		asWord, opVal, eqWord, sameVal)
	matchTables(t,
		func() tableOps[Word, uint32] { return wordTable(&WordMap[uint32]{}) },
		func() tableOps[Word, uint32] {
			return genericMap(collections.NewHashMap[Word, uint32](hashWord, eqWord))
		},
		asWord, func(op int) uint32 { return uint32(op) }, eqWord, func(a, b uint32) bool { return a == b })
}

func TestWordSetMatchesGenericHashSet(t *testing.T) {
	matchTables(t,
		func() tableOps[Word, struct{}] { return wordTable(&WordMap[struct{}]{}) },
		func() tableOps[Word, struct{}] { return genericSet(collections.NewHashSet[Word](hashWord, eqWord)) },
		asWord, none, eqWord, eqNone)
}

// TestWordTableSlotsMatchValTable feeds a WordMap and a ValMap the same
// integer keys, boxed as IntVs for the latter, and requires the same
// slot-state array and the same key in every live slot: unboxing moves
// no entry, so the iteration order a program observes is unchanged.
func TestWordTableSlotsMatchValTable(t *testing.T) {
	matchTables(t,
		func() tableOps[Val, Val] {
			w := &WordMap[Val]{}
			ops := wordTable(w)
			v := &ValMap[Val]{}
			check := func() {
				ws, vs := w.States(), v.States()
				if string(ws) != string(vs) {
					t.Fatalf("slot states diverged: word %v, val %v", ws, vs)
				}
				for i, st := range ws {
					if st != SlotFull {
						continue
					}
					wk, wv := w.SlotAt(i)
					vk, vv := v.SlotAt(i)
					if !sameVal(wk.Val(VInt), vk) || !sameVal(wv, vv) {
						t.Fatalf("slot %d: word %v=%v, val %v=%v", i, wk, wv, vk, vv)
					}
				}
			}
			return tableOps[Val, Val]{
				put:    func(k, x Val) bool { a := ops.put(k.word(), x); v.Put(k, x); check(); return a },
				remove: func(k Val) bool { a := ops.remove(k.word()); v.Remove(k); check(); return a },
				get:    func(k Val) (Val, bool) { return ops.get(k.word()) },
				has: func(k Val) bool {
					a := ops.has(k.word())
					if a != v.Has(k) {
						t.Fatalf("has(%v): word %v, val %v", k, a, !a)
					}
					return a
				},
				clear: func() { ops.clear(); v.Clear(); check() },
				len:   ops.len, bytes: ops.bytes,
				iter: func(f func(Val, Val) bool) { ops.iter(func(k Word, x Val) bool { return f(k.Val(VInt), x) }) },
			}
		},
		newValMap,
		func(k Val) Val { return IntV(k.Bits()) }, opVal, sameVal, sameVal)
}

// The enumeration's encode half is a WordMap for an integer domain and
// a ValMap otherwise. Either way it must stay bit-identical to one
// HashMap[Val, uint32] fed every value: the word table's slots equal
// the Val table's (TestWordTableSlotsMatchValTable). The random
// workloads mix kinds, so they run on an enumeration built with Val
// storage; "window" adds only integers and runs on NewEnum's words. An
// enumeration never removes or clears, so only inserts (Enum.Add) and
// lookups (Enum.Enc) apply.
func TestEnumEncodeTableMatchesGenericHashMap(t *testing.T) {
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		e := newEnum(ir.TStr) // Val storage
		if w.name == "window" {
			e = NewEnum()
		}
		want := collections.NewHashMap[Val, uint32](HashVal, EqVal)
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", w.name, op)
			switch act, k := w.next(r, op); act {
			case actInsert:
				id, added := e.Add(k)
				had := want.Has(k)
				if !had {
					want.Put(k, uint32(want.Len()))
				}
				if wid, _ := want.Get(k); id != wid || added == had {
					t.Fatalf("%s: Add(%v) = %d,%v, want %d,%v", where, k, id, added, wid, !had)
				}
			case actLookup:
				gid, gok := e.Enc(k)
				wid, wok := want.Get(k)
				if gid != wid || gok != wok {
					t.Fatalf("%s: Enc(%v) = %d,%v, want %d,%v", where, k, gid, gok, wid, wok)
				}
			}
			enc := valTable(&e.venc)
			if e.words {
				wt := wordTable(&e.wenc)
				enc.len, enc.bytes = wt.len, wt.bytes
				enc.iter = func(f func(Val, uint32) bool) {
					wt.iter(func(k Word, id uint32) bool { return f(k.Val(VInt), id) })
				}
			}
			if enc.len() != want.Len() || enc.bytes() != want.Bytes() {
				t.Fatalf("%s: len/bytes %d/%d, want %d/%d", where, enc.len(), enc.bytes(), want.Len(), want.Bytes())
			}
			gk, gv := entries(enc.iter)
			wk, wv := entries(want.Iterate)
			if len(gk) != len(wk) {
				t.Fatalf("%s: iterated %d entries, want %d", where, len(gk), len(wk))
			}
			for i := range gk {
				if !sameVal(gk[i], wk[i]) || gv[i] != wv[i] {
					t.Fatalf("%s: iteration order diverged at entry %d", where, i)
				}
			}
		}
	}
}

// TestFloatKeyMembershipAcrossImpls requires every Set<f64> and
// Map<f64,u64> implementation to agree on signed zeros: EqVal holds +0
// and -0 equal, so HashVal must hash them alike or a set's contents
// would depend on the selected implementation, and a zero key is
// stored as +0 whichever zero was inserted. NaN is pinned as it
// stands, and does differ between families: a hash table never finds
// a NaN again, so each insert adds one, while FlatSet orders NaN equal
// to every key.
func TestFloatKeyMembershipAcrossImpls(t *testing.T) {
	pos, neg, nan := FloatV(0), FloatV(math.Copysign(0, -1)), FloatV(math.NaN())
	if pos.I == neg.I || !EqVal(pos, neg) || HashVal(pos) != HashVal(neg) {
		t.Fatalf("±0: bits %x/%x, EqVal %v, hashes %x/%x", pos.I, neg.I, EqVal(pos, neg), HashVal(pos), HashVal(neg))
	}
	newColl := func(ct *ir.CollType, sel collections.Impl) Coll {
		ct.Sel = sel
		return NewCollFor(ct, collections.ImplHashSet, collections.ImplHashMap)
	}
	for _, sel := range []collections.Impl{collections.ImplHashSet, collections.ImplSwissSet, collections.ImplFlatSet} {
		for _, zeros := range [][2]Val{{pos, neg}, {neg, pos}} {
			s := newColl(ir.SetOf(ir.TF64), sel).(RSet)
			s.Insert(zeros[0])
			if !s.Has(zeros[1]) || s.Insert(zeros[1]) || s.Len() != 1 {
				t.Errorf("%v: after inserting %v, Has(%v) = %v, Len after inserting it = %d; want true, 1",
					sel, zeros[0], zeros[1], s.Has(zeros[1]), s.Len())
			}
			s.Iterate(func(k Val) bool {
				if k.I != pos.I {
					t.Errorf("%v: inserting %v then %v keeps %v, want +0", sel, zeros[0], zeros[1], k)
				}
				return true
			})
		}
		s := newColl(ir.SetOf(ir.TF64), sel).(RSet)
		s.Insert(FloatV(1))
		nanNew, nanHas := s.Insert(nan), s.Has(nan)
		if flat := sel == collections.ImplFlatSet; nanNew == flat || nanHas != flat {
			t.Errorf("%v: Insert(NaN) = %v, Has(NaN) = %v; want %v, %v", sel, nanNew, nanHas, !flat, flat)
		}
	}
	for _, sel := range []collections.Impl{collections.ImplHashMap, collections.ImplSwissMap} {
		for _, zeros := range [][2]Val{{pos, neg}, {neg, pos}} {
			m := newColl(ir.MapOf(ir.TF64, ir.TU64), sel).(RMap)
			m.Put(zeros[0], IntV(1))
			m.Put(zeros[1], IntV(2))
			if v, ok := m.Get(zeros[0]); !ok || v.I != 2 || m.Len() != 1 {
				t.Errorf("%v: Put(%v), Put(%v): Get(%v) = %v,%v, Len %d; want 2,true, 1",
					sel, zeros[0], zeros[1], zeros[0], v, ok, m.Len())
			}
			m.Iterate(func(k, _ Val) bool {
				if k.I != pos.I {
					t.Errorf("%v: Put(%v), Put(%v) keeps key %v, want +0", sel, zeros[0], zeros[1], k)
				}
				return true
			})
		}
		m := newColl(ir.MapOf(ir.TF64, ir.TU64), sel).(RMap)
		m.Put(pos, IntV(2))
		m.Put(nan, IntV(3))
		m.Put(nan, IntV(4))
		if m.HasKey(nan) || m.Len() != 3 {
			t.Errorf("%v: two Put(NaN): HasKey(NaN) = %v, Len %d; want false, 3", sel, m.HasKey(nan), m.Len())
		}
	}
}
