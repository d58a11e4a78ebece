package interp

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// tablesSumFile pins the observable behaviour of every hash table a
// program or Table III can reach: one "<table>/<workload> <sha256>"
// line per table and vhash_test.go workload. The hash covers every
// operation's result and, after each operation, Len, Bytes and the
// full iteration order, so a change to a table's probe sequence,
// growth schedule, tombstone handling or memory model fails here.
const tablesSumFile = "testdata/tables.sum"

// pinRec streams what a table shows into one SHA-256, through a
// buffer so each recorded word is not a hash call of its own.
type pinRec struct {
	h   hash.Hash
	buf []byte
}

func (r *pinRec) u64(x uint64) {
	r.buf = binary.LittleEndian.AppendUint64(r.buf, x)
	if len(r.buf) >= 1<<16 {
		r.flush()
	}
}

func (r *pinRec) flush() {
	r.h.Write(r.buf)
	r.buf = r.buf[:0]
}

func (r *pinRec) flag(b bool) {
	if b {
		r.u64(1)
	} else {
		r.u64(0)
	}
}

func (r *pinRec) val(v Val) {
	r.u64(uint64(v.K))
	r.u64(v.I)
	r.u64(uint64(len(v.Str())))
	r.buf = append(r.buf, v.Str()...)
}

// pinOps drives one table with workload keys already converted to the
// table's key domain; every closure records what it observes.
type pinOps struct {
	insert func(k Val, op int)
	remove func(k Val)
	lookup func(k Val)
	clear  func()
	state  func() // Len, Bytes and iteration order
}

// pinTable is one table under the pin: key converts a workload key
// into the table's key domain, open builds it fresh for a workload.
type pinTable struct {
	name string
	key  func(Val) Val
	open func(r *pinRec) pinOps
}

func intKey(k Val) Val { return IntV(k.Bits()) }
func strKey(k Val) Val { return StrV(strconv.FormatUint(k.Bits(), 36)) }

func runtimeSet(ct *ir.CollType) func(r *pinRec) pinOps {
	return func(r *pinRec) pinOps {
		s := NewCollFor(ct, collections.ImplHashSet, collections.ImplHashMap).(RSet)
		return pinOps{
			insert: func(k Val, _ int) { r.flag(s.Insert(k)) },
			remove: func(k Val) { r.flag(s.Remove(k)) },
			lookup: func(k Val) { r.flag(s.Has(k)) },
			clear:  s.Clear,
			state: func() {
				r.u64(uint64(s.Len()))
				r.u64(uint64(s.Bytes()))
				s.Iterate(func(k Val) bool { r.val(k); return true })
			},
		}
	}
}

func runtimeMap(ct *ir.CollType) func(r *pinRec) pinOps {
	return func(r *pinRec) pinOps {
		m := NewCollFor(ct, collections.ImplHashSet, collections.ImplHashMap).(RMap)
		val := func(op int) Val { return IntV(uint64(op)) }
		if ct.Elem == ir.TStr {
			val = func(op int) Val { return StrV(strconv.Itoa(op)) }
		}
		return pinOps{
			insert: func(k Val, op int) { m.Put(k, val(op)) },
			remove: func(k Val) { r.flag(m.Remove(k)) },
			lookup: func(k Val) {
				v, ok := m.Get(k)
				r.val(v)
				r.flag(ok)
				r.flag(m.HasKey(k))
			},
			clear: m.Clear,
			state: func() {
				r.u64(uint64(m.Len()))
				r.u64(uint64(m.Bytes()))
				m.Iterate(func(k, v Val) bool { r.val(k); r.val(v); return true })
			},
		}
	}
}

// runtimeEnum drives an enumeration over domain key: Add and Enc, as
// an enumeration never removes or clears. Its iteration order is the
// encode table's slot order followed by the decode sequence, recorded
// only after an Add that grew it: nothing else changes either.
func runtimeEnum(key ir.Type) func(r *pinRec) pinOps {
	return func(r *pinRec) pinOps {
		e := newEnum(key)
		seen := 0
		return pinOps{
			insert: func(k Val, _ int) { id, added := e.Add(k); r.u64(uint64(id)); r.flag(added) },
			remove: func(Val) {},
			lookup: func(k Val) { id, ok := e.Enc(k); r.u64(uint64(id)); r.flag(ok) },
			clear:  func() {},
			state: func() {
				r.u64(uint64(e.Len()))
				r.u64(uint64(e.Bytes()))
				if e.Len() == seen {
					return
				}
				if e.words {
					e.wenc.Iterate(func(k Word, id uint32) bool { r.u64(uint64(k)); r.u64(uint64(id)); return true })
				} else {
					e.venc.Iterate(func(k Val, id uint32) bool { r.val(k); r.u64(uint64(id)); return true })
				}
				for ; seen < e.Len(); seen++ {
					r.val(e.Dec(uint32(seen)))
				}
			},
		}
	}
}

func uint64HashSet(r *pinRec) pinOps {
	s := &collections.HashMap[uint64, struct{}]{}
	return pinOps{
		insert: func(k Val, _ int) { r.flag(s.Put(k.I, struct{}{})) },
		remove: func(k Val) { r.flag(s.Remove(k.I)) },
		lookup: func(k Val) { r.flag(s.Has(k.I)) },
		clear:  s.Clear,
		state: func() {
			r.u64(uint64(s.Len()))
			r.u64(uint64(s.Bytes()))
			s.Iterate(func(k uint64, _ struct{}) bool { r.u64(k); return true })
		},
	}
}

func uint64SwissSet(r *pinRec) pinOps {
	s := collections.NewUint64SwissSet()
	return pinOps{
		insert: func(k Val, _ int) { r.flag(s.Insert(k.I)) },
		remove: func(k Val) { r.flag(s.Remove(k.I)) },
		lookup: func(k Val) { r.flag(s.Has(k.I)) },
		clear:  s.Clear,
		state: func() {
			r.u64(uint64(s.Len()))
			r.u64(uint64(s.Bytes()))
			s.Iterate(func(k uint64) bool { r.u64(k); return true })
		},
	}
}

func uint64Map(open func() collections.Map[uint64, uint64]) func(r *pinRec) pinOps {
	return func(r *pinRec) pinOps {
		m := open()
		return pinOps{
			insert: func(k Val, op int) { m.Put(k.I, uint64(op)) },
			remove: func(k Val) { r.flag(m.Remove(k.I)) },
			lookup: func(k Val) {
				v, ok := m.Get(k.I)
				r.u64(v)
				r.flag(ok)
				r.flag(m.Has(k.I))
			},
			clear: m.Clear,
			state: func() {
				r.u64(uint64(m.Len()))
				r.u64(uint64(m.Bytes()))
				m.Iterate(func(k, v uint64) bool { r.u64(k); r.u64(v); return true })
			},
		}
	}
}

func selected(ct *ir.CollType, sel collections.Impl) *ir.CollType {
	ct.Sel = sel
	return ct
}

// pinnedTables lists the tables NewCollFor builds for the hash and
// Swiss selections over integer and string keys, both enumeration
// storages, and the uint64 tables Table III times.
func pinnedTables() []pinTable {
	var out []pinTable
	for _, k := range []struct {
		t   ir.Type
		key func(Val) Val
	}{{ir.TU64, intKey}, {ir.TStr, strKey}} {
		for _, ct := range []*ir.CollType{
			selected(ir.SetOf(k.t), collections.ImplHashSet),
			selected(ir.MapOf(k.t, ir.TU64), collections.ImplHashMap),
			selected(ir.MapOf(k.t, ir.TStr), collections.ImplHashMap),
			selected(ir.SetOf(k.t), collections.ImplSwissSet),
			selected(ir.MapOf(k.t, ir.TU64), collections.ImplSwissMap),
		} {
			open := runtimeSet(ct)
			if ct.Kind == ir.KMap {
				open = runtimeMap(ct)
			}
			out = append(out, pinTable{ct.String(), k.key, open})
		}
		out = append(out, pinTable{ir.EnumOf(k.t).String(), k.key, runtimeEnum(k.t)})
	}
	return append(out,
		pinTable{"table3/HashSet", intKey, uint64HashSet},
		pinTable{"table3/SwissSet", intKey, uint64SwissSet},
		pinTable{"table3/HashMap", intKey, uint64Map(func() collections.Map[uint64, uint64] { return &collections.HashMap[uint64, uint64]{} })},
		pinTable{"table3/SwissMap", intKey, uint64Map(func() collections.Map[uint64, uint64] { return collections.NewUint64SwissMap[uint64]() })},
	)
}

// TestTableBehaviourPinned: every pinned table behaves exactly as
// recorded. A deliberate behaviour change fails it; the failure log
// ends with the recomputed sum file.
func TestTableBehaviourPinned(t *testing.T) {
	f, err := os.Open(tablesSumFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	n := 0
	for _, tb := range pinnedTables() {
		for _, w := range workloads() {
			r := &pinRec{h: sha256.New()}
			ops := tb.open(r)
			rnd := rand.New(rand.NewSource(1))
			for op := 0; op < opCount; op++ {
				act, kv := w.next(rnd, op)
				k := tb.key(kv)
				r.u64(uint64(act))
				switch act {
				case actInsert:
					ops.insert(k, op)
				case actRemove:
					ops.remove(k)
				case actLookup:
					ops.lookup(k)
				case actClear:
					ops.clear()
				}
				ops.state()
			}
			r.flush()
			name, sum := tb.name+"/"+w.name, fmt.Sprintf("%x", r.h.Sum(nil))
			fmt.Fprintf(&got, "%s %s\n", name, sum)
			n++
			if want[name] != sum {
				t.Errorf("%s: behaviour hash %s, want %q", name, sum, want[name])
			}
		}
	}
	if len(want) != n {
		t.Errorf("%s has %d entries, want %d", tablesSumFile, len(want), n)
	}
	if t.Failed() {
		t.Logf("recomputed %s:\n%s", tablesSumFile, got.String())
	}
}
