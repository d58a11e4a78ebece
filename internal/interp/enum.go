package interp

import (
	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Enum is the runtime enumeration of §III-B: Enc maps values to dense
// identifiers, Dec is the inverse sequence. Identifiers are assigned
// contiguously from 0 in first-add order; values are never removed, so
// Dec is injective and append-only — the properties RTE's rewrite
// rules rely on.
//
// Its storage is fixed at creation from the domain type: unboxed Words
// for an integer domain, boxed Vals otherwise.
type Enum struct {
	words bool // storage is wenc/wdec
	venc  ValMap[uint32]
	vdec  collections.Seq[Val]
	wenc  collections.HashMap[Word, uint32]
	wdec  collections.Seq[Word]
}

// AbsentID is the sentinel identifier returned by Enc for values not
// in the enumeration; it is never issued by Add, so dense membership
// tests against it are always false. Exported so the bytecode VM
// returns the identical sentinel.
const AbsentID uint32 = 0xffffffff

// NewEnum returns an empty enumeration of integers, stored as Words.
// The engines create enumerations through Runtime.NewEnum, which
// picks the storage from the IR domain type.
func NewEnum() *Enum { return &Enum{words: true} }

// newEnum returns an empty enumeration over key: word storage for an
// integer domain (see wordKey), Val storage for every other domain and
// for a nil key.
func newEnum(key ir.Type) *Enum { return &Enum{words: wordKey(key)} }

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
	v = canonKey(v)
	if id, ok := e.venc.Get(v); ok {
		return id, false
	}
	id := uint32(e.vdec.Len())
	e.venc.Put(v, id)
	e.vdec.Append(v)
	return id, true
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
