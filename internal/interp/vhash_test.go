package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// The engines' hash tables, ValMap over boxed Vals and
// collections.HashMap over unboxed Words, are checked here against a
// Go map model: every operation's result and Len, and the full
// contents at the end of each workload. Their exact behaviour (Bytes
// and iteration order after every operation) is pinned by
// TestTableBehaviourPinned, and TestWordTableSlotsMatchValTable
// requires the two to occupy the same slots for the same integer keys.

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

// tableOps is the surface of a table under test, adapted to one
// signature: put reports whether the key was new.
type tableOps[K, V any] struct {
	put    func(K, V) bool
	remove func(K) bool
	get    func(K) (V, bool)
	has    func(K) bool
	clear  func()
	len    func() int
	iter   func(func(K, V) bool)
}

func valTable[V any](m *ValMap[V]) tableOps[Val, V] {
	return tableOps[Val, V]{put: m.Put, remove: m.Remove, get: m.Get, has: m.Has, clear: m.Clear, len: m.Len, iter: m.Iterate}
}

func wordTable[V any](m *collections.HashMap[Word, V]) tableOps[Word, V] {
	return tableOps[Word, V]{put: m.Put, remove: m.Remove, get: m.Get, has: m.Has, clear: m.Clear, len: m.Len, iter: m.Iterate}
}

// matchModel replays every workload on a table built fresh per
// workload and on a Go map, with keys converted by key, model keys by
// mkey and the op-th value by val.
func matchModel[K any, MK comparable, V any](t *testing.T, newTable func() tableOps[K, V],
	key func(Val) K, mkey func(K) MK, val func(op int) V, sameV func(a, b V) bool) {
	t.Helper()
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		got, model := newTable(), map[MK]V{}
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", w.name, op)
			act, kv := w.next(r, op)
			k := key(kv)
			mk := mkey(k)
			wv, wok := model[mk]
			switch act {
			case actInsert:
				model[mk] = val(op)
				if g := got.put(k, val(op)); g != !wok {
					t.Fatalf("%s: put(%v) added %v, want %v", where, kv, g, !wok)
				}
			case actRemove:
				delete(model, mk)
				if g := got.remove(k); g != wok {
					t.Fatalf("%s: remove(%v) = %v, want %v", where, kv, g, wok)
				}
			case actLookup:
				gv, gok := got.get(k)
				if gok != wok || (wok && !sameV(gv, wv)) {
					t.Fatalf("%s: get(%v) = %v,%v, want %v,%v", where, kv, gv, gok, wv, wok)
				}
				if g := got.has(k); g != wok {
					t.Fatalf("%s: has(%v) = %v, want %v", where, kv, g, wok)
				}
			case actClear:
				got.clear()
				clear(model)
			}
			if got.len() != len(model) {
				t.Fatalf("%s: len %d, want %d", where, got.len(), len(model))
			}
		}
		n := 0
		got.iter(func(k K, v V) bool {
			if wv, ok := model[mkey(k)]; !ok || !sameV(v, wv) {
				t.Fatalf("%s: iteration yielded %v=%v, model has %v,%v", w.name, k, v, wv, ok)
			}
			n++
			return true
		})
		if n != len(model) {
			t.Fatalf("%s: iterated %d entries, want %d", w.name, n, len(model))
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

func eqWord(a, b Word) bool     { return a == b }
func eqNone(_, _ struct{}) bool { return true }
func sameWord(k Word) Word      { return k }

func TestValMapMatchesGenericHashMap(t *testing.T) {
	matchModel(t, func() tableOps[Val, Val] { return valTable(&ValMap[Val]{}) }, asVal, keyOf, opVal, sameVal)
}

func TestValSetMatchesGenericHashSet(t *testing.T) {
	matchModel(t, func() tableOps[Val, struct{}] { return valTable(&ValMap[struct{}]{}) }, asVal, keyOf, none, eqNone)
}

// TestWordMapMatchesGenericHashMap checks both value representations
// of the word-keyed map, and the uint32 one of the enumeration's
// encode half.
func TestWordMapMatchesGenericHashMap(t *testing.T) {
	matchModel(t, func() tableOps[Word, Word] { return wordTable(&collections.HashMap[Word, Word]{}) },
		asWord, sameWord, opWord, eqWord)
	matchModel(t, func() tableOps[Word, Val] { return wordTable(&collections.HashMap[Word, Val]{}) },
		asWord, sameWord, opVal, sameVal)
	matchModel(t, func() tableOps[Word, uint32] { return wordTable(&collections.HashMap[Word, uint32]{}) },
		asWord, sameWord, func(op int) uint32 { return uint32(op) }, func(a, b uint32) bool { return a == b })
}

func TestWordSetMatchesGenericHashSet(t *testing.T) {
	matchModel(t, func() tableOps[Word, struct{}] { return wordTable(&collections.HashMap[Word, struct{}]{}) },
		asWord, sameWord, none, eqNone)
}

// TestWordTableSlotsMatchValTable feeds a collections.HashMap over
// Words and a ValMap the same integer keys, boxed as IntVs for the
// latter, and requires the same results, Len and Bytes, the same
// slot-state array and the same entry in every live slot: unboxing
// moves no entry, so the iteration order a program observes is
// unchanged.
func TestWordTableSlotsMatchValTable(t *testing.T) {
	for _, wl := range workloads() {
		r := rand.New(rand.NewSource(1))
		w, v := &collections.HashMap[Word, Val]{}, &ValMap[Val]{}
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", wl.name, op)
			act, kv := wl.next(r, op)
			k := IntV(kv.Bits())
			var wr, vr bool
			switch act {
			case actInsert:
				wr, vr = w.Put(k.word(), opVal(op)), v.Put(k, opVal(op))
			case actRemove:
				wr, vr = w.Remove(k.word()), v.Remove(k)
			case actLookup:
				wr, vr = w.Has(k.word()), v.Has(k)
			case actClear:
				w.Clear()
				v.Clear()
			}
			if wr != vr || w.Len() != v.Len() || w.Bytes() != v.Bytes() {
				t.Fatalf("%s: result/len/bytes word %v/%d/%d, val %v/%d/%d", where, wr, w.Len(), w.Bytes(), vr, v.Len(), v.Bytes())
			}
			ws, vs := w.States(), v.States()
			if string(ws) != string(vs) {
				t.Fatalf("%s: slot states diverged: word %v, val %v", where, ws, vs)
			}
			for i, st := range ws {
				if st != collections.SlotFull {
					continue
				}
				wk, wv := w.SlotAt(i)
				vk, vv := v.SlotAt(i)
				if !sameVal(wk.Val(VInt), vk) || !sameVal(wv, vv) {
					t.Fatalf("%s: slot %d: word %v=%v, val %v=%v", where, i, wk, wv, vk, vv)
				}
			}
		}
	}
}

// TestEnumEncodeTableMatchesGenericHashMap checks an enumeration
// against a Go map model that assigns identifiers in first-add order.
// The random workloads mix kinds, so they run on an enumeration built
// with Val storage; "window" adds only integers and runs on NewEnum's
// words. An enumeration never removes or clears, so only inserts
// (Enum.Add) and lookups (Enum.Enc) apply.
func TestEnumEncodeTableMatchesGenericHashMap(t *testing.T) {
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		e := newEnum(ir.TStr) // Val storage
		if w.name == "window" {
			e = NewEnum()
		}
		model := map[modelKey]uint32{}
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", w.name, op)
			act, k := w.next(r, op)
			wid, had := model[keyOf(k)]
			switch act {
			case actInsert:
				if !had {
					wid = uint32(len(model))
					model[keyOf(k)] = wid
				}
				if id, added := e.Add(k); id != wid || added == had {
					t.Fatalf("%s: Add(%v) = %d,%v, want %d,%v", where, k, id, added, wid, !had)
				}
			case actLookup:
				if id, ok := e.Enc(k); ok != had || (had && id != wid) {
					t.Fatalf("%s: Enc(%v) = %d,%v, want %d,%v", where, k, id, ok, wid, had)
				}
			}
			if e.Len() != len(model) {
				t.Fatalf("%s: Len %d, want %d", where, e.Len(), len(model))
			}
		}
		for k, id := range model {
			if got := keyOf(e.Dec(id)); got != k {
				t.Fatalf("%s: Dec(%d) = %v, want %v", w.name, id, got, k)
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
