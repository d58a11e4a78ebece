package collections_test

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// wide is a plain element with the modeled size of interp.Val: the
// memory model must charge the two alike, whatever Val's Go layout.
type wide = [6]uint64

// TestValLayout pins the runtime value at two pointer words plus the
// kind/bits header, an unboxed element at one word, and the modeled
// size of both at 48 bytes.
func TestValLayout(t *testing.T) {
	if got := unsafe.Sizeof(interp.Val{}); got != 32 {
		t.Errorf("unsafe.Sizeof(interp.Val{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(interp.Word(0)); got != 8 {
		t.Errorf("unsafe.Sizeof(interp.Word(0)) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(wide{}); got != interp.ValModelBytes {
		t.Errorf("unsafe.Sizeof(wide{}) = %d, want %d", got, interp.ValModelBytes)
	}
}

// layoutOp is one step of a random operation sequence: kind 0 adds
// key, kind 1 removes (or, on sequences, inserts at a position), kind
// 2 removes from a sequence, kind 3 clears.
type layoutOp struct {
	kind int
	key  uint64
}

func layoutOps(seed int64, n int) []layoutOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]layoutOp, n)
	for i := range ops {
		kind := 0
		switch p := r.Intn(1000); {
		case p < 2:
			kind = 3
		case p < 150:
			kind = 1
		case p < 250:
			kind = 2
		}
		ops[i] = layoutOp{kind, uint64(r.Intn(2000))}
	}
	return ops
}

// family is one collection under test: apply runs an op, bytes
// reports the modeled footprint. twin names the generic family over
// the wide element it must match; empty means the family of its own
// name.
type family struct {
	name  string
	apply func(layoutOp)
	bytes func() int64
	twin  string
}

// keyed is the op driver of a set or map: kinds 0 and 2 add the key,
// kind 1 removes it, kind 3 clears.
func keyed(add, remove func(uint64), clear func()) func(layoutOp) {
	return func(op layoutOp) {
		switch op.kind {
		case 0, 2:
			add(op.key)
		case 1:
			remove(op.key)
		default:
			clear()
		}
	}
}

// families instantiates every generic collection over element type E,
// with mk turning a key into an element. HashMap keys are integers, so
// it holds E as values only.
func families[E any](mk func(uint64) E, hash func(E) uint64, eq func(E, E) bool, cmp func(E, E) int) []family {
	seq := collections.NewSeq[E]()
	flat := collections.NewFlatSet(cmp)
	ss := collections.NewSwissSet(hash, eq)
	hm := &collections.HashMap[uint64, E]{}
	sm := collections.NewSwissMap[E, E](hash, eq)
	bm := collections.NewBitMap[E]()
	return []family{
		{"Seq", func(op layoutOp) {
			switch op.kind {
			case 0:
				seq.Append(mk(op.key))
			case 1:
				seq.InsertAt(int(op.key)%(seq.Len()+1), mk(op.key))
			case 2:
				if seq.Len() > 0 {
					seq.RemoveAt(int(op.key) % seq.Len())
				}
			default:
				seq.Clear()
			}
		}, seq.Bytes, ""},
		{"FlatSet", keyed(func(k uint64) { flat.Insert(mk(k)) }, func(k uint64) { flat.Remove(mk(k)) }, flat.Clear), flat.Bytes, ""},
		{"SwissSet", keyed(func(k uint64) { ss.Insert(mk(k)) }, func(k uint64) { ss.Remove(mk(k)) }, ss.Clear), ss.Bytes, ""},
		{"HashMap", keyed(func(k uint64) { hm.Put(k, mk(k)) }, func(k uint64) { hm.Remove(k) }, hm.Clear), hm.Bytes, ""},
		{"SwissMap", keyed(func(k uint64) { sm.Put(mk(k), mk(k)) }, func(k uint64) { sm.Remove(mk(k)) }, sm.Clear), sm.Bytes, ""},
		{"BitMap", keyed(func(k uint64) { bm.Put(uint32(k), mk(k)) }, func(k uint64) { bm.Remove(uint32(k)) }, bm.Clear), bm.Bytes, ""},
	}
}

// wideFamilies are the reference families over the wide element, plus
// the two integer-keyed hash tables with their key arrays charged as
// wide elements: the footprint of the same slots holding 48-byte keys,
// the twin of every table keyed by Vals or Words.
func wideFamilies() []family {
	fams := families(
		func(k uint64) wide { return wide{k} },
		func(e wide) uint64 { return collections.Mix64(e[0]) },
		func(a, b wide) bool { return a == b },
		func(a, b wide) int { return collections.CmpUint64(a[0], b[0]) })
	hm, hs := &collections.HashMap[uint64, wide]{}, &collections.HashMap[uint64, struct{}]{}
	return append(fams,
		family{"HashMap<wide,wide>", keyed(func(k uint64) { hm.Put(k, wide{k}) }, func(k uint64) { hm.Remove(k) }, hm.Clear),
			func() int64 { return hm.Bytes() + wideKeys(hm.States()) }, ""},
		family{"HashSet<wide>", keyed(func(k uint64) { hs.Put(k, struct{}{}) }, func(k uint64) { hs.Remove(k) }, hs.Clear),
			func() int64 { return hs.Bytes() + wideKeys(hs.States()) }, ""})
}

// wideKeys is what widening the uint64 keys of a table with the given
// slot states to wide elements adds to its footprint.
func wideKeys(states []uint8) int64 {
	return int64(len(states)) * int64(unsafe.Sizeof(wide{})-unsafe.Sizeof(uint64(0)))
}

func byName(fams []family, name string) family {
	for _, f := range fams {
		if f.name == name {
			return f
		}
	}
	panic("no family " + name)
}

func wordFamilies() []family {
	return families(
		func(k uint64) interp.Word { return interp.Word(k) },
		func(w interp.Word) uint64 { return collections.Mix64(uint64(w)) },
		func(a, b interp.Word) bool { return a == b },
		func(a, b interp.Word) int { return collections.CmpUint64(uint64(a), uint64(b)) })
}

// floatBits is the float whose bits are k: it hashes like the integer
// k, so tombstone reuse, and with it Bytes(), follows the wide twin.
func floatBits(k uint64) interp.Val { return interp.FloatV(math.Float64frombits(k)) }

// runtimeFamilies are the tables the engines run, over Val and Word
// keys, and their runtime collections in each element storage
// NewCollFor picks, each named with its twin over wide elements.
func runtimeFamilies() []family {
	vm, vs := &interp.ValMap[interp.Val]{}, &interp.ValMap[struct{}]{}
	wm := &collections.HashMap[interp.Word, interp.Word]{}
	wv := &collections.HashMap[interp.Word, interp.Val]{}
	ws := &collections.HashMap[interp.Word, struct{}]{}
	w := func(k uint64) interp.Word { return interp.Word(k) }
	fams := []family{
		{"ValMap", keyed(func(k uint64) { vm.Put(interp.IntV(k), interp.IntV(k)) },
			func(k uint64) { vm.Remove(interp.IntV(k)) }, vm.Clear), vm.Bytes, "HashMap<wide,wide>"},
		{"ValMap[struct{}]", keyed(func(k uint64) { vs.Put(interp.IntV(k), struct{}{}) },
			func(k uint64) { vs.Remove(interp.IntV(k)) }, vs.Clear), vs.Bytes, "HashSet<wide>"},
		{"HashMap[Word, Word]", keyed(func(k uint64) { wm.Put(w(k), w(k)) }, func(k uint64) { wm.Remove(w(k)) }, wm.Clear), wm.Bytes, "HashMap<wide,wide>"},
		{"HashMap[Word, Val]", keyed(func(k uint64) { wv.Put(w(k), interp.IntV(k)) }, func(k uint64) { wv.Remove(w(k)) }, wv.Clear), wv.Bytes, "HashMap<wide,wide>"},
		{"HashMap[Word, struct{}]", keyed(func(k uint64) { ws.Put(w(k), struct{}{}) }, func(k uint64) { ws.Remove(w(k)) }, ws.Clear), ws.Bytes, "HashSet<wide>"},
	}
	newColl := func(ct *ir.CollType) interp.Coll {
		return interp.NewCollFor(ct, collections.ImplHashSet, collections.ImplHashMap)
	}
	bitMap := ir.MapOf(ir.TIdx, ir.TU64)
	bitMap.Sel = collections.ImplBitMap
	for _, m := range []struct {
		name string
		ct   *ir.CollType
		key  func(uint64) interp.Val
		twin string
	}{
		{"Map<u64,u64>", ir.MapOf(ir.TU64, ir.TU64), interp.IntV, "HashMap<wide,wide>"},
		{"Map<u64,str>", ir.MapOf(ir.TU64, ir.TStr), interp.IntV, "HashMap<wide,wide>"},
		{"Map<f64,f64>", ir.MapOf(ir.TF64, ir.TF64), floatBits, "HashMap<wide,wide>"},
		{"Map{BitMap}<idx,u64>", bitMap, interp.IntV, "BitMap"},
	} {
		c := newColl(m.ct).(interp.RMap)
		key := m.key
		fams = append(fams, family{m.name, keyed(func(k uint64) { c.Put(key(k), key(k)) },
			func(k uint64) { c.Remove(key(k)) }, c.Clear), c.Bytes, m.twin})
	}
	for _, ct := range []*ir.CollType{ir.SetOf(ir.TU64), ir.SetOf(ir.TF64)} {
		c := newColl(ct).(interp.RSet)
		key := interp.IntV
		if ct.Key == ir.TF64 {
			key = floatBits
		}
		fams = append(fams, family{ct.String(), keyed(func(k uint64) { c.Insert(key(k)) },
			func(k uint64) { c.Remove(key(k)) }, c.Clear), c.Bytes, "HashSet<wide>"})
	}
	for _, ct := range []*ir.CollType{ir.SeqOf(ir.TU64), ir.SeqOf(ir.TF64), ir.SeqOf(ir.TStr)} {
		s := newColl(ct).(*interp.RSeqArr)
		fams = append(fams, family{ct.String(), func(op layoutOp) {
			v := interp.IntV(op.key)
			switch op.kind {
			case 0:
				s.Append(v)
			case 1:
				s.InsertAt(int(op.key)%(s.Len()+1), v)
			case 2:
				if s.Len() > 0 {
					s.RemoveAt(int(op.key) % s.Len())
				}
			default:
				s.Clear()
			}
		}, s.Bytes, "Seq"})
	}
	return fams
}

// TestBytesLayoutIndependent drives every family over interp.Val, over
// the unboxed interp.Word and over the 48-byte wide element with the
// same operation sequence and requires identical Bytes() after every
// operation. The engines' hash tables and runtime collections, boxed
// and unboxed, run beside their twins over wide elements.
func TestBytesLayoutIndependent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var under []family
		under = append(under, families(interp.IntV, interp.HashVal, interp.EqVal, interp.CmpVal)...)
		under = append(under, wordFamilies()...)
		under = append(under, runtimeFamilies()...)
		ops := layoutOps(seed, 4000)
		for _, v := range under {
			twin := v.twin
			if twin == "" {
				twin = v.name
			}
			w := byName(wideFamilies(), twin)
			for n, op := range ops {
				v.apply(op)
				w.apply(op)
				if vb, wb := v.bytes(), w.bytes(); vb != wb {
					t.Fatalf("seed %d %s vs %s: after op %d %+v, Bytes() = %d, %d over [6]uint64",
						seed, v.name, w.name, n, op, vb, wb)
				}
			}
		}
	}
}
