package collections_test

import (
	"math/rand"
	"testing"
	"unsafe"

	"memoir/internal/collections"
	"memoir/internal/interp"
)

// wide is a plain element with the modeled size of interp.Val: the
// memory model must charge the two alike, whatever Val's Go layout.
type wide = [6]uint64

// TestValLayout pins the runtime value at two pointer words plus the
// kind/bits header, and its modeled size at 48 bytes.
func TestValLayout(t *testing.T) {
	if got := unsafe.Sizeof(interp.Val{}); got != 32 {
		t.Errorf("unsafe.Sizeof(interp.Val{}) = %d, want 32", got)
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
// reports the modeled footprint.
type family struct {
	name  string
	apply func(layoutOp)
	bytes func() int64
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
// with mk turning a key into an element.
func families[E any](mk func(uint64) E, hash func(E) uint64, eq func(E, E) bool, cmp func(E, E) int) []family {
	seq := collections.NewSeq[E]()
	flat := collections.NewFlatSet(cmp)
	hs := collections.NewHashSet(hash, eq)
	ss := collections.NewSwissSet(hash, eq)
	hm := collections.NewHashMap[E, E](hash, eq)
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
		}, seq.Bytes},
		{"FlatSet", keyed(func(k uint64) { flat.Insert(mk(k)) }, func(k uint64) { flat.Remove(mk(k)) }, flat.Clear), flat.Bytes},
		{"HashSet", keyed(func(k uint64) { hs.Insert(mk(k)) }, func(k uint64) { hs.Remove(mk(k)) }, hs.Clear), hs.Bytes},
		{"SwissSet", keyed(func(k uint64) { ss.Insert(mk(k)) }, func(k uint64) { ss.Remove(mk(k)) }, ss.Clear), ss.Bytes},
		{"HashMap", keyed(func(k uint64) { hm.Put(mk(k), mk(k)) }, func(k uint64) { hm.Remove(mk(k)) }, hm.Clear), hm.Bytes},
		{"SwissMap", keyed(func(k uint64) { sm.Put(mk(k), mk(k)) }, func(k uint64) { sm.Remove(mk(k)) }, sm.Clear), sm.Bytes},
		{"BitMap", keyed(func(k uint64) { bm.Put(uint32(k), mk(k)) }, func(k uint64) { bm.Remove(uint32(k)) }, bm.Clear), bm.Bytes},
	}
}

func wideFamilies() []family {
	return families(
		func(k uint64) wide { return wide{k} },
		func(e wide) uint64 { return collections.Mix64(e[0]) },
		func(a, b wide) bool { return a == b },
		func(a, b wide) int { return collections.CmpUint64(a[0], b[0]) })
}

func byName(fams []family, name string) family {
	for _, f := range fams {
		if f.name == name {
			return f
		}
	}
	panic("no family " + name)
}

// TestBytesLayoutIndependent drives every family over interp.Val and
// over the 48-byte wide element with the same operation sequence and
// requires identical Bytes() after every operation. The interpreter's
// specialised ValMap and ValSet run beside generic HashMap and HashSet
// instances over wide elements.
func TestBytesLayoutIndependent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		vm, vs := &interp.ValMap{}, &interp.ValSet{}
		vals := append(families(interp.IntV, interp.HashVal, interp.EqVal, interp.CmpVal),
			family{"ValMap", keyed(func(k uint64) { vm.Put(interp.IntV(k), interp.IntV(k)) },
				func(k uint64) { vm.Remove(interp.IntV(k)) }, vm.Clear), vm.Bytes},
			family{"ValSet", keyed(func(k uint64) { vs.Insert(interp.IntV(k)) },
				func(k uint64) { vs.Remove(interp.IntV(k)) }, vs.Clear), vs.Bytes})
		twins := wideFamilies()
		wides := append(wideFamilies(), byName(twins, "HashMap"), byName(twins, "HashSet"))

		ops := layoutOps(seed, 4000)
		for i := range vals {
			v, w := vals[i], wides[i]
			for n, op := range ops {
				v.apply(op)
				w.apply(op)
				if vb, wb := v.bytes(), w.bytes(); vb != wb {
					t.Fatalf("seed %d %s vs %s: after op %d %+v, Bytes() = %d over Val, %d over [6]uint64",
						seed, v.name, w.name, n, op, vb, wb)
				}
			}
		}
	}
}
