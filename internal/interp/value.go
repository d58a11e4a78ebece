// Package interp executes MEMOIR programs. It is the execution
// substrate standing in for the paper's LLVM code generation: a
// tree-walking evaluator over the structured IR whose collection
// operations dispatch to the implementations in internal/collections.
//
// The interpreter is instrumented for every measurement the paper's
// evaluation needs:
//
//   - dynamic operation counts per (implementation, operation), the
//     basis of Figure 4's breakdown and the per-architecture cost
//     model behind Figure 6;
//   - sparse vs dense access counts (Table II);
//   - a peak-memory model fed by each collection's Bytes() (Figures
//     5c, 8 and 10);
//   - an order-insensitive output checksum used to prove that ADE
//     preserves program behaviour.
package interp

import (
	"fmt"
	"math"
	"strings"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// ValKind tags a runtime value.
type ValKind uint8

const (
	VInt   ValKind = iota // integers, bools, ptr, idx (bits in I)
	VFloat                // float bits in I
	VStr                  // string in ref
	VColl                 // collection handle in ref
	VEnum                 // enumeration handle in ref
	VTuple                // tuple fields in ref
)

// Val is a runtime value, kept compact (32 bytes, two pointer words)
// because both engines copy it constantly: floats live as bits in I,
// and strings, collection handles, enumerations and tuples share the
// ref slot. The memory model does not see this layout: collections
// charge ValModelBytes per element (see ModeledBytes).
type Val struct {
	K   ValKind
	I   uint64
	ref any
}

// ValModelBytes is the modeled storage size of one Val element, the
// unit every collection's Bytes() charges for a Val slot. It is fixed
// independently of the Go layout so a representation change cannot
// move the memory columns of Figures 5c, 8 and 10.
const ValModelBytes = 48

// ModeledBytes reports ValModelBytes; collections read it through a
// nil *Val, so the receiver is never dereferenced.
func (*Val) ModeledBytes() int64 { return ValModelBytes }

// IntV returns an integer value.
func IntV(x uint64) Val { return Val{K: VInt, I: x} }

// FloatV returns a float value.
func FloatV(x float64) Val { return Val{K: VFloat, I: math.Float64bits(x)} }

// StrV returns a string value.
func StrV(s string) Val { return Val{K: VStr, ref: s} }

// Str returns the string payload ("" if not a string).
func (v Val) Str() string {
	s, _ := v.ref.(string)
	return s
}

// CollV returns a collection handle value.
func CollV(c Coll) Val { return Val{K: VColl, ref: c} }

// EnumV returns an enumeration handle value.
func EnumV(e *Enum) Val { return Val{K: VEnum, ref: e} }

// TupleV returns a tuple value.
func TupleV(vs []Val) Val { return Val{K: VTuple, ref: vs} }

// Flt returns the float payload.
func (v Val) Flt() float64 { return math.Float64frombits(v.I) }

// Coll returns the collection handle (nil if not a collection).
func (v Val) Coll() Coll {
	c, _ := v.ref.(Coll)
	return c
}

// Ref exposes the raw ref slot so the VM's hot opcodes can type-switch
// on the concrete collection once, instead of asserting to Coll first
// and switching on the result.
func (v Val) Ref() any { return v.ref }

// Enum returns the enumeration handle (nil if not an enumeration).
func (v Val) Enum() *Enum {
	e, _ := v.ref.(*Enum)
	return e
}

// Tuple returns the tuple fields (nil if not a tuple).
func (v Val) Tuple() []Val {
	t, _ := v.ref.([]Val)
	return t
}

// Bool reports the value as a boolean.
func (v Val) Bool() bool { return v.I != 0 }

// BoolV returns a boolean value (canonical 0/1 integer).
func BoolV(b bool) Val {
	if b {
		return Val{K: VInt, I: 1}
	}
	return Val{K: VInt, I: 0}
}

// Bits returns a canonical 64-bit fingerprint for hashing and
// checksums.
func (v Val) Bits() uint64 {
	switch v.K {
	case VInt, VFloat:
		return v.I // float bits already live in I
	case VStr:
		return collections.HashString(v.Str())
	default:
		return 0
	}
}

// HashVal and EqVal parameterize the generic hash containers over Val;
// they are exported so the bytecode VM instantiates identical
// containers.
func HashVal(v Val) uint64 {
	switch v.K {
	case VStr:
		return collections.HashString(v.Str())
	default:
		return collections.Mix64(v.Bits())
	}
}

// EqVal reports scalar value equality.
func EqVal(a, b Val) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case VInt:
		return a.I == b.I
	case VFloat:
		return a.Flt() == b.Flt()
	case VStr:
		return a.Str() == b.Str()
	}
	return false
}

// CmpVal is a total order over scalar values (floats, strings,
// integer bit patterns).
func CmpVal(a, b Val) int {
	switch a.K {
	case VFloat:
		switch {
		case a.Flt() < b.Flt():
			return -1
		case a.Flt() > b.Flt():
			return 1
		}
		return 0
	case VStr:
		return strings.Compare(a.Str(), b.Str())
	default:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}

func (v Val) String() string {
	switch v.K {
	case VInt:
		return fmt.Sprintf("%d", v.I)
	case VFloat:
		return fmt.Sprintf("%g", v.Flt())
	case VStr:
		return fmt.Sprintf("%q", v.Str())
	case VColl:
		return fmt.Sprintf("coll<%v,%d>", v.Coll().Impl(), v.Coll().Len())
	case VEnum:
		return fmt.Sprintf("enum<%d>", v.Enum().Len())
	case VTuple:
		return fmt.Sprintf("tuple(%d)", len(v.Tuple()))
	}
	return "?"
}

// ZeroVal materializes the zero value of an IR type; collection types
// materialize a fresh empty collection through newColl (used by map
// inserts whose value type is itself a collection, e.g.
// Map<ptr,Set<ptr>>). Both engines pass their own registering
// constructor so memory accounting stays engine-local.
func ZeroVal(t ir.Type, newColl func(*ir.CollType) Coll) Val {
	switch tt := t.(type) {
	case *ir.ScalarType:
		switch tt.Kind {
		case ir.F32, ir.F64:
			return FloatV(0)
		case ir.Str:
			return StrV("")
		default:
			return IntV(0)
		}
	case *ir.CollType:
		return CollV(newColl(tt))
	}
	return Val{}
}

func (ip *Interp) zeroVal(t ir.Type) Val { return ZeroVal(t, ip.NewColl) }
