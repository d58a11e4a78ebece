package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"memoir/internal/collections"
)

// The Val-specialized tables in vhash.go claim to be bit-identical to
// the generic collections tables instantiated with HashVal/EqVal. These
// tests drive both families through the same operation sequences —
// growth, removal, tombstone reuse and same-size rehashes included —
// and require identical Len, Bytes and iteration order after every
// operation.

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

func sameVal(a, b Val) bool { return a.K == b.K && a.I == b.I && a.S == b.S }

// entries collects an Iterate-style traversal in order.
func entries[V any](iter func(func(k Val, v V) bool)) (ks []Val, vs []V) {
	iter(func(k Val, v V) bool { ks, vs = append(ks, k), append(vs, v); return true })
	return ks, vs
}

func sameOrder[V comparable](t *testing.T, where string, gk, wk []Val, gv, wv []V) {
	t.Helper()
	if len(gk) != len(wk) {
		t.Fatalf("%s: iterated %d entries, want %d", where, len(gk), len(wk))
	}
	for i := range gk {
		if !sameVal(gk[i], wk[i]) || gv[i] != wv[i] {
			t.Fatalf("%s: iteration order diverged at entry %d", where, i)
		}
	}
}

func TestValMapMatchesGenericHashMap(t *testing.T) {
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		got := &ValMap{}
		want := collections.NewHashMap[Val, Val](HashVal, EqVal)
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", w.name, op)
			act, k := w.next(r, op)
			switch act {
			case actInsert:
				got.Put(k, IntV(uint64(op)))
				want.Put(k, IntV(uint64(op)))
			case actRemove:
				if g, w := got.Remove(k), want.Remove(k); g != w {
					t.Fatalf("%s: Remove(%v) = %v, want %v", where, k, g, w)
				}
			case actLookup:
				gv, gok := got.Get(k)
				wv, wok := want.Get(k)
				if gok != wok || !sameVal(gv, wv) || got.Has(k) != want.Has(k) {
					t.Fatalf("%s: Get(%v) = %v,%v, want %v,%v", where, k, gv, gok, wv, wok)
				}
			case actClear:
				got.Clear()
				want.Clear()
			}
			if got.Len() != want.Len() || got.Bytes() != want.Bytes() {
				t.Fatalf("%s: len/bytes %d/%d, want %d/%d", where, got.Len(), got.Bytes(), want.Len(), want.Bytes())
			}
			gk, gv := entries(got.Iterate)
			wk, wv := entries(want.Iterate)
			sameOrder(t, where, gk, wk, gv, wv)
		}
	}
}

func TestValSetMatchesGenericHashSet(t *testing.T) {
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		got := &ValSet{}
		want := collections.NewHashSet[Val](HashVal, EqVal)
		for op := 0; op < opCount; op++ {
			where := fmt.Sprintf("%s op %d", w.name, op)
			act, k := w.next(r, op)
			switch act {
			case actInsert:
				if g, w := got.Insert(k), want.Insert(k); g != w {
					t.Fatalf("%s: Insert(%v) = %v, want %v", where, k, g, w)
				}
			case actRemove:
				if g, w := got.Remove(k), want.Remove(k); g != w {
					t.Fatalf("%s: Remove(%v) = %v, want %v", where, k, g, w)
				}
			case actLookup:
				if g, w := got.Has(k), want.Has(k); g != w {
					t.Fatalf("%s: Has(%v) = %v, want %v", where, k, g, w)
				}
			case actClear:
				got.Clear()
				want.Clear()
			}
			if got.Len() != want.Len() || got.Bytes() != want.Bytes() {
				t.Fatalf("%s: len/bytes %d/%d, want %d/%d", where, got.Len(), got.Bytes(), want.Len(), want.Bytes())
			}
			setIter := func(iter func(func(Val) bool)) func(func(Val, bool) bool) {
				return func(f func(Val, bool) bool) { iter(func(k Val) bool { return f(k, true) }) }
			}
			gk, gv := entries(setIter(got.Iterate))
			wk, wv := entries(setIter(want.Iterate))
			sameOrder(t, where, gk, wk, gv, wv)
		}
	}
}

// Enum's encode table is a valU32Map. An enumeration never removes or
// clears, so only inserts (Enum.Add) and lookups (Enum.Enc) apply.
func TestEnumEncodeTableMatchesGenericHashMap(t *testing.T) {
	for _, w := range workloads() {
		r := rand.New(rand.NewSource(1))
		e := NewEnum()
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
			if e.enc.n != want.Len() || e.enc.Bytes() != want.Bytes() {
				t.Fatalf("%s: len/bytes %d/%d, want %d/%d", where, e.enc.n, e.enc.Bytes(), want.Len(), want.Bytes())
			}
			gk, gv := entries(func(f func(Val, uint32) bool) {
				for i, st := range e.enc.state {
					if st == SlotFull && !f(e.enc.keys[i], e.enc.vals[i]) {
						return
					}
				}
			})
			wk, wv := entries(want.Iterate)
			sameOrder(t, where, gk, wk, gv, wv)
		}
	}
}
