package interp

import (
	"memoir/internal/collections"
)

// Enum is the runtime enumeration of §III-B: Enc maps values to dense
// identifiers, Dec is the inverse sequence. Identifiers are assigned
// contiguously from 0 in first-add order; values are never removed, so
// Dec is injective and append-only — the properties RTE's rewrite
// rules rely on.
//
// An enumeration is created without a type, so it picks its storage
// at the first Add: unboxed Words when the value is an integer, boxed
// Vals otherwise. Should a non-integer value follow integers, the
// enumeration moves to the Val tables (see box), so its behaviour never
// depends on the choice.
type Enum struct {
	words bool // storage is wenc/wdec; fixed at the first Add
	venc  ValMap[uint32]
	vdec  collections.Seq[Val]
	wenc  WordMap[uint32]
	wdec  collections.Seq[Word]
}

// AbsentID is the sentinel identifier returned by Enc for values not
// in the enumeration; it is never issued by Add, so dense membership
// tests against it are always false. Exported so the bytecode VM
// returns the identical sentinel.
const AbsentID uint32 = 0xffffffff

// NewEnum returns an empty enumeration.
func NewEnum() *Enum { return &Enum{} }

// Len returns the number of enumerated values (the N of E = [0,N)).
func (e *Enum) Len() int {
	if e.words {
		return e.wdec.Len()
	}
	return e.vdec.Len()
}

// Enc translates a value to its identifier. The bool mirrors the
// paper's UB contract: callers that cannot guarantee membership must
// check it.
func (e *Enum) Enc(v Val) (uint32, bool) {
	if e.words {
		if v.K != VInt {
			return 0, false
		}
		return e.wenc.Get(v.word())
	}
	return e.venc.Get(v)
}

// Dec translates an identifier back to its value; behaviour is
// undefined (panics) for identifiers never issued.
func (e *Enum) Dec(id uint32) Val {
	if e.words {
		return e.wdec.Get(int(id)).Val(VInt)
	}
	return e.vdec.Get(int(id))
}

// Add inserts v if absent, returning its identifier and whether it was
// newly added.
func (e *Enum) Add(v Val) (uint32, bool) {
	if e.Len() == 0 {
		e.words = v.K == VInt
	} else if e.words && v.K != VInt {
		e.box()
	}
	if e.words {
		w := v.word()
		if id, ok := e.wenc.Get(w); ok {
			return id, false
		}
		id := uint32(e.wdec.Len())
		e.wenc.Put(w, id)
		e.wdec.Append(w)
		return id, true
	}
	if id, ok := e.venc.Get(v); ok {
		return id, false
	}
	id := uint32(e.vdec.Len())
	e.venc.Put(v, id)
	e.vdec.Append(v)
	return id, true
}

// box moves a word-stored enumeration to the Val tables. It replays
// the encode puts in identifier order, which is first-add order, so
// the Val table ends up exactly as if it had held every value from the
// start; the decode half is copied slot by slot.
func (e *Enum) box() {
	keys := make([]Word, e.wenc.Len())
	e.wenc.Iterate(func(k Word, id uint32) bool {
		keys[id] = k
		return true
	})
	for id, k := range keys {
		e.venc.Put(k.Val(VInt), uint32(id))
	}
	for _, w := range e.wdec.Slice() {
		e.vdec.Append(w.Val(VInt))
	}
	e.wenc, e.wdec, e.words = WordMap[uint32]{}, collections.Seq[Word]{}, false
}

// Bytes models the footprint of both halves of the enumeration.
func (e *Enum) Bytes() int64 {
	if e.words {
		return e.wenc.Bytes() + e.wdec.Bytes()
	}
	return e.venc.Bytes() + e.vdec.Bytes()
}

// CorruptSlot deliberately breaks the enc/dec bijection — it
// overwrites dec slot 0 with the most recently added value — and
// reports whether it did (a single-entry enumeration has no distinct
// slot to corrupt). It exists only for fault injection
// (internal/faults EnumCorrupt): the silent-miscompile failure mode,
// wrong decoded values without any crash, made reachable on demand.
func (e *Enum) CorruptSlot() bool {
	n := e.Len()
	if n < 2 {
		return false
	}
	if e.words {
		e.wdec.Set(0, e.wdec.Get(n-1))
	} else {
		e.vdec.Set(0, e.vdec.Get(n-1))
	}
	return true
}
