package interp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// The runtime collections are driven here through every method the
// engines call, against a Go map (or slice) model. Every collection
// NewCollFor builds is covered, with u64, f64 and str keys and
// elements where the implementation takes them. Where one IR type has
// more than one element storage (unboxed Words, boxed Vals, and for
// HashMap the mixed layout), every storage runs the same operations
// and must agree with the model and with the others on Len, Bytes and
// iteration order after every operation.

// collCase is one collection type: its storage variants, the first
// built by NewCollFor and any others constructed directly.
type collCase struct {
	name     string
	ct       *ir.CollType
	impl     collections.Impl
	variants []func() Coll
}

var collKeyTypes = []*ir.ScalarType{ir.TU64, ir.TF64, ir.TStr}

// collKey returns the key or element drawn from n for scalar type t.
// Float zeros come signed at random, so the -0 canonicalization is
// exercised on every float path.
func collKey(r *rand.Rand, t *ir.ScalarType, n int) Val {
	switch t {
	case ir.TF64:
		if n == 0 && r.Intn(2) == 0 {
			return FloatV(math.Copysign(0, -1))
		}
		return FloatV(float64(n) / 4)
	case ir.TStr:
		return StrV(fmt.Sprintf("s%d", n))
	}
	return IntV(uint64(n))
}

// modelKey identifies a key as EqVal does for non-NaN keys, so -0 and
// +0 are one key.
type modelKey struct {
	k ValKind
	i uint64
	s string
}

func keyOf(v Val) modelKey {
	if v.K == VFloat && math.Float64frombits(v.I) == 0 {
		return modelKey{k: VFloat}
	}
	return modelKey{v.K, v.I, v.Str()}
}

func fromKey(k modelKey) Val {
	switch k.k {
	case VStr:
		return StrV(k.s)
	case VFloat:
		return Val{K: VFloat, I: k.i}
	}
	return IntV(k.i)
}

func newVariant(ct *ir.CollType, sel collections.Impl) func() Coll {
	return func() Coll {
		c := *ct
		c.Sel = sel
		return NewCollFor(&c, collections.ImplHashSet, collections.ImplHashMap)
	}
}

func setCases() []collCase {
	var out []collCase
	for _, kt := range collKeyTypes {
		ct := ir.SetOf(kt)
		for _, sel := range []collections.Impl{collections.ImplHashSet, collections.ImplSwissSet, collections.ImplFlatSet} {
			c := collCase{name: fmt.Sprintf("%v/%v", sel, kt), ct: ct, impl: sel, variants: []func() Coll{newVariant(ct, sel)}}
			if sel == collections.ImplHashSet && kt == ir.TU64 {
				c.variants = append(c.variants, func() Coll { return &RSetHash{t: ct} })
			}
			out = append(out, c)
		}
	}
	ct := ir.SetOf(ir.TIdx)
	for _, sel := range []collections.Impl{collections.ImplBitSet, collections.ImplSparseBitSet} {
		out = append(out, collCase{name: fmt.Sprintf("%v/idx", sel), ct: ct, impl: sel, variants: []func() Coll{newVariant(ct, sel)}})
	}
	return out
}

func mapCases() []collCase {
	var out []collCase
	for _, kt := range collKeyTypes {
		for _, vt := range collKeyTypes {
			ct := ir.MapOf(kt, vt)
			for _, sel := range []collections.Impl{collections.ImplHashMap, collections.ImplSwissMap} {
				c := collCase{name: fmt.Sprintf("%v/%v->%v", sel, kt, vt), ct: ct, impl: sel, variants: []func() Coll{newVariant(ct, sel)}}
				if sel == collections.ImplHashMap && kt == ir.TU64 {
					c.variants = append(c.variants, func() Coll { return &RMapHash{t: ct} })
					if vt != ir.TStr {
						c.variants = append(c.variants, func() Coll { return &RMapHash{t: ct, layout: wordKeys} })
					}
				}
				out = append(out, c)
			}
		}
	}
	for _, vt := range collKeyTypes {
		ct := ir.MapOf(ir.TIdx, vt)
		c := collCase{name: fmt.Sprintf("BitMap/idx->%v", vt), ct: ct, impl: collections.ImplBitMap, variants: []func() Coll{newVariant(ct, collections.ImplBitMap)}}
		if vt != ir.TStr {
			c.variants = append(c.variants, func() Coll {
				r := &RMapBit{t: ct}
				r.present = r.vals.Present()
				return r
			})
		}
		out = append(out, c)
	}
	return out
}

func seqCases() []collCase {
	var out []collCase
	for _, et := range collKeyTypes {
		ct := ir.SeqOf(et)
		c := collCase{name: fmt.Sprintf("Seq/%v", et), ct: ct, impl: collections.ImplArray, variants: []func() Coll{newVariant(ct, collections.ImplNone)}}
		if et != ir.TStr {
			c.variants = append(c.variants, func() Coll { return &RSeqArr{t: ct} })
		}
		out = append(out, c)
	}
	return out
}

// checkShape checks the type accessors of every variant of c.
func checkShape(t *testing.T, c collCase, colls []Coll) {
	t.Helper()
	for i, x := range colls {
		want := c.ct.Key
		if c.ct.Kind != ir.KSet {
			want = c.ct.Elem
		}
		if x.CollKind() != c.ct.Kind || x.Impl() != c.impl || x.ElemType() != want {
			t.Fatalf("variant %d: kind/impl/elem %v/%v/%v, want %v/%v/%v",
				i, x.CollKind(), x.Impl(), x.ElemType(), c.ct.Kind, c.impl, want)
		}
	}
}

// agree requires every variant to report the same Len, Bytes and
// iteration sequence, and the first variant to match the model.
func agree(t *testing.T, where string, colls []Coll, seqs [][]Val, want int) {
	t.Helper()
	for i, x := range colls {
		if x.Len() != want {
			t.Fatalf("%s: variant %d Len %d, model %d", where, i, x.Len(), want)
		}
		if x.Bytes() != colls[0].Bytes() {
			t.Fatalf("%s: variant %d Bytes %d, variant 0 %d", where, i, x.Bytes(), colls[0].Bytes())
		}
		if len(seqs[i]) != len(seqs[0]) {
			t.Fatalf("%s: variant %d iterated %d values, variant 0 %d", where, i, len(seqs[i]), len(seqs[0]))
		}
		for j := range seqs[i] {
			if !sameVal(seqs[i][j], seqs[0][j]) {
				t.Fatalf("%s: variant %d iteration %d is %v, variant 0 %v", where, i, j, seqs[i][j], seqs[0][j])
			}
		}
	}
}

// slotOrder lists the live entries of a hash table through the VM's
// inlined-iteration surface, States and SlotAt; nil for other tables.
func slotOrder(c Coll) []Val {
	var out []Val
	switch c := c.(type) {
	case *RSetHash:
		for i, st := range c.States() {
			if st == collections.SlotFull {
				out = append(out, c.SlotAt(i))
			}
		}
	case *RMapHash:
		for i, st := range c.States() {
			if st == collections.SlotFull {
				k, v := c.SlotAt(i)
				out = append(out, k, v)
			}
		}
	default:
		return nil
	}
	return out
}

// sameSeq reports whether two iteration sequences are bit-identical.
func sameSeq(a, b []Val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVal(a[i], b[i]) {
			return false
		}
	}
	return true
}

const collOps = 1500

func TestRuntimeSetsMatchModel(t *testing.T) {
	for _, c := range setCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			var sets []RSet
			var colls []Coll
			for _, v := range c.variants {
				x := v()
				sets, colls = append(sets, x.(RSet)), append(colls, x)
			}
			checkShape(t, c, colls)
			kt, _ := c.ct.Key.(*ir.ScalarType)
			model := map[modelKey]bool{}
			for op := 0; op < collOps; op++ {
				where := fmt.Sprintf("op %d", op)
				k := collKey(r, kt, r.Intn(200))
				switch n := r.Intn(100); {
				case n < 50:
					for i, s := range sets {
						if got := s.Insert(k); got == model[keyOf(k)] {
							t.Fatalf("%s: variant %d Insert(%v) = %v with key present %v", where, i, k, got, model[keyOf(k)])
						}
					}
					model[keyOf(k)] = true
				case n < 75:
					for i, s := range sets {
						if got := s.Remove(k); got != model[keyOf(k)] {
							t.Fatalf("%s: variant %d Remove(%v) = %v, want %v", where, i, k, got, model[keyOf(k)])
						}
					}
					delete(model, keyOf(k))
				case n < 99:
					for i, s := range sets {
						if got := s.Has(k); got != model[keyOf(k)] {
							t.Fatalf("%s: variant %d Has(%v) = %v, want %v", where, i, k, got, model[keyOf(k)])
						}
					}
				default:
					for _, s := range sets {
						s.Clear()
					}
					model = map[modelKey]bool{}
				}
				seqs := make([][]Val, len(sets))
				for i, s := range sets {
					seen := map[modelKey]bool{}
					s.Iterate(func(v Val) bool {
						if !model[keyOf(v)] || seen[keyOf(v)] || !sameVal(v, fromKey(keyOf(v))) {
							t.Fatalf("%s: variant %d iterates %v: in model %v, repeated %v", where, i, v, model[keyOf(v)], seen[keyOf(v)])
						}
						seen[keyOf(v)] = true
						seqs[i] = append(seqs[i], v)
						return true
					})
					if slots := slotOrder(colls[i]); slots != nil && !sameSeq(slots, seqs[i]) {
						t.Fatalf("%s: variant %d States/SlotAt order differs from Iterate", where, i)
					}
				}
				agree(t, where, colls, seqs, len(model))
			}
		})
	}
}

func TestRuntimeMapsMatchModel(t *testing.T) {
	for _, c := range mapCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			var maps []RMap
			var colls []Coll
			for _, v := range c.variants {
				x := v()
				maps, colls = append(maps, x.(RMap)), append(colls, x)
			}
			checkShape(t, c, colls)
			kt, _ := c.ct.Key.(*ir.ScalarType)
			vt := c.ct.Elem.(*ir.ScalarType)
			model := map[modelKey]Val{}
			for op := 0; op < collOps; op++ {
				where := fmt.Sprintf("op %d", op)
				k := collKey(r, kt, r.Intn(200))
				_, present := model[keyOf(k)]
				switch n := r.Intn(100); {
				case n < 50:
					v := collKey(r, vt, r.Intn(1000))
					for _, m := range maps {
						m.Put(k, v)
					}
					model[keyOf(k)] = v
				case n < 75:
					for i, m := range maps {
						if got := m.Remove(k); got != present {
							t.Fatalf("%s: variant %d Remove(%v) = %v, want %v", where, i, k, got, present)
						}
					}
					delete(model, keyOf(k))
				case n < 99:
					for i, m := range maps {
						got, ok := m.Get(k)
						if ok != present || m.HasKey(k) != present || (present && !sameVal(got, model[keyOf(k)])) {
							t.Fatalf("%s: variant %d Get(%v) = %v,%v HasKey %v; want %v,%v", where, i, k, got, ok, m.HasKey(k), model[keyOf(k)], present)
						}
						if b, ok := m.(*RMapBit); ok && present && !sameVal(b.At(uint32(k.I)), got) {
							t.Fatalf("%s: variant %d At(%v) = %v, Get %v", where, i, k, b.At(uint32(k.I)), got)
						}
					}
				default:
					for _, m := range maps {
						m.Clear()
					}
					model = map[modelKey]Val{}
				}
				seqs := make([][]Val, len(maps))
				for i, m := range maps {
					seen := map[modelKey]bool{}
					m.Iterate(func(k, v Val) bool {
						want, ok := model[keyOf(k)]
						if !ok || seen[keyOf(k)] || !sameVal(k, fromKey(keyOf(k))) || !sameVal(v, want) {
							t.Fatalf("%s: variant %d iterates %v=%v, model %v,%v, repeated %v", where, i, k, v, want, ok, seen[keyOf(k)])
						}
						seen[keyOf(k)] = true
						seqs[i] = append(seqs[i], k, v)
						return true
					})
					if slots := slotOrder(colls[i]); slots != nil && !sameSeq(slots, seqs[i]) {
						t.Fatalf("%s: variant %d States/SlotAt order differs from Iterate", where, i)
					}
					if b, ok := m.(*RMapBit); ok {
						live := 0
						for _, w := range b.Words() {
							live += bits.OnesCount64(w)
						}
						if live != len(model) {
							t.Fatalf("%s: variant %d Words hold %d keys, model %d", where, i, live, len(model))
						}
					}
				}
				agree(t, where, colls, seqs, len(model))
			}
		})
	}
}

func TestRuntimeSeqsMatchModel(t *testing.T) {
	for _, c := range seqCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			var seqsUT []*RSeqArr
			var colls []Coll
			for _, v := range c.variants {
				x := v()
				seqsUT, colls = append(seqsUT, x.(*RSeqArr)), append(colls, x)
			}
			checkShape(t, c, colls)
			et := c.ct.Elem.(*ir.ScalarType)
			var model []Val
			for op := 0; op < collOps; op++ {
				where := fmt.Sprintf("op %d", op)
				v := collKey(r, et, r.Intn(1000))
				switch n := r.Intn(100); {
				case n < 35:
					for _, s := range seqsUT {
						s.Append(v)
					}
					model = append(model, v)
				case n < 50:
					i := r.Intn(len(model) + 1)
					for _, s := range seqsUT {
						s.InsertAt(i, v)
					}
					model = append(model[:i], append([]Val{v}, model[i:]...)...)
				case n < 65 && len(model) > 0:
					i := r.Intn(len(model))
					for _, s := range seqsUT {
						s.RemoveAt(i)
					}
					model = append(model[:i], model[i+1:]...)
				case n < 80 && len(model) > 0:
					i := r.Intn(len(model))
					for _, s := range seqsUT {
						s.Set(i, v)
					}
					model[i] = v
				case n < 99 && len(model) > 0:
					i := r.Intn(len(model))
					for j, s := range seqsUT {
						if got := s.Get(i); !sameVal(got, model[i]) {
							t.Fatalf("%s: variant %d Get(%d) = %v, want %v", where, j, i, got, model[i])
						}
					}
				case n == 99:
					for _, s := range seqsUT {
						s.Clear()
					}
					model = nil
				}
				seqs := make([][]Val, len(seqsUT))
				for j, s := range seqsUT {
					s.Iterate(func(i int, v Val) bool {
						if i != len(seqs[j]) || !sameVal(v, model[i]) {
							t.Fatalf("%s: variant %d iterates [%d]=%v, want [%d]=%v", where, j, i, v, len(seqs[j]), model[i])
						}
						seqs[j] = append(seqs[j], v)
						return true
					})
					vals, words, ek := s.Elems()
					elems := vals
					if words != nil || vals == nil {
						elems = nil
						for _, w := range words {
							elems = append(elems, w.Val(ek))
						}
					}
					if !sameSeq(elems, seqs[j]) {
						t.Fatalf("%s: variant %d Elems differ from Iterate", where, j)
					}
				}
				agree(t, where, colls, seqs, len(model))
			}
		})
	}
}

// TestRuntimeEnumStorage requires an enumeration's storage to follow
// its domain type, and a float domain to keep +0 for either zero.
func TestRuntimeEnumStorage(t *testing.T) {
	for _, tc := range []struct {
		key   ir.Type
		words bool
	}{{ir.TU64, true}, {ir.TIdx, true}, {ir.TF64, false}, {ir.TStr, false}, {nil, false}} {
		if e := newEnum(tc.key); e.words != tc.words {
			t.Errorf("newEnum(%v): word storage %v, want %v", tc.key, e.words, tc.words)
		}
	}
	if !NewEnum().words {
		t.Error("NewEnum(): not word storage")
	}
	e := newEnum(ir.TF64)
	neg := FloatV(math.Copysign(0, -1))
	if id, added := e.Add(neg); id != 0 || !added {
		t.Fatalf("Add(-0) = %d,%v, want 0,true", id, added)
	}
	if id, added := e.Add(FloatV(0)); id != 0 || added {
		t.Fatalf("Add(+0) after -0 = %d,%v, want 0,false", id, added)
	}
	if got := e.Dec(0); got.I != 0 {
		t.Fatalf("Dec(0) = %v, want +0", got)
	}
	if id, ok := e.Enc(neg); id != 0 || !ok {
		t.Fatalf("Enc(-0) = %d,%v, want 0,true", id, ok)
	}
}
