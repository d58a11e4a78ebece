// Package bytecode lowers the structured-control-flow MEMOIR IR into
// a flat, register-based bytecode: linearized blocks, structured
// control flow resolved into jumps, a per-function constant pool
// preloaded into the frame, and a program-wide function table. The
// bytecode is the input of internal/vm, the switch-dispatch register
// VM that serves as the fast second execution engine next to the
// tree-walking interpreter in internal/interp.
//
// Phi copies are coalesced away where live ranges allow (coalesce.go),
// so the VM dispatches a move only where a phi's value must really be
// copied.
//
// The lowering is measurement-preserving by construction: exactly the
// instructions the interpreter counts as Steps carry a stepping
// opcode (synthetic moves and jumps do not), collection operations
// keep their (implementation, op-kind) accounting sites, and
// allocation sites carry the same iteration-local classification
// (ir.IterLocalAllocs) the interpreter uses for its peak-memory
// model, so both engines report identical deterministic counts.
package bytecode

import (
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// Op enumerates VM opcodes. The compiler specializes IR instructions
// by the static types of their operands (collection kind,
// float/signed/unsigned scalars), moving per-op type dispatch from
// run time to compile time.
//
// Ordering contract: every opcode after OpJumpIfNot corresponds to
// one interpreter-counted step (an IR instruction, a for-each entry,
// or a do-while iteration); the opcodes up to and including
// OpJumpIfNot are synthetic control and nesting-path hops, which the
// interpreter never counts as steps.
type Op uint8

const (
	OpNop Op = iota
	// OpMove copies register A to Dst (phi moves, casts to the same
	// representation).
	OpMove
	// OpJump continues at pc Aux.
	OpJump
	// OpJumpIf jumps to Aux when register A is true (do-while latch).
	OpJumpIf
	// OpNest is one step of an operand's nesting path, a hop: Dst =
	// A[B] (Aux = ir.IdxValue), A[Imm] (ir.IdxConst) or A.Imm
	// (ir.IdxField), counted as a read on the outer container. Aux2 is
	// the hop's Nest* role toward the instruction it feeds.
	OpNest
	// OpJumpIfNot jumps to Aux when register A is false (if lowering).
	OpJumpIfNot

	// --- stepping opcodes (everything below bumps Stats.Steps) ---

	// OpStep is the do-while iteration head: it counts the iteration
	// and enforces the step budget, nothing else.
	OpStep
	// OpForEach iterates operand A, binding keys to register Dst and
	// values to Dst2, executing the body segment [Aux, Aux2) per
	// element; execution continues at Aux2.
	OpForEach
	// OpReturn returns operand A; OpReturnVoid returns no value.
	OpReturn
	OpReturnVoid
	// OpCall invokes function Aux with argument list Aux2, storing the
	// result in Dst (when >= 0).
	OpCall
	// OpRaise reports the compile-time-diagnosed runtime error
	// Msgs[Aux] when (and only when) executed.
	OpRaise

	// Collection construction.
	OpNewColl    // Dst = new collection, allocation site Aux
	OpNewEnum    // Dst = new enumeration over domain EnumKeys[Aux]
	OpEnumGlobal // Dst = enumeration global Globals[Aux] over domain EnumKeys[Aux2]

	// Collection queries/updates, specialized by collection kind.
	OpReadMap      // Dst = A[B]
	OpReadSeq      // Dst = A[B]
	OpHasSet       // Dst = has(A, B)
	OpHasMap       // Dst = has(A, B)
	OpSize         // Dst = size(A)
	OpWriteMap     // write(A, B, C); Dst = base handle
	OpWriteSeq     // write(A, B, C); Dst = base handle
	OpInsertSet    // insert(A, B); Dst = base handle
	OpInsertMap    // insert(A, B); Dst = base handle
	OpInsertSeqEnd // insert(A, end, C); Dst = base handle
	OpInsertSeqAt  // insert(A, B, C); Dst = base handle
	OpRemoveSet    // remove(A, B); Dst = base handle
	OpRemoveMap    // remove(A, B); Dst = base handle
	OpRemoveSeq    // remove(A, B); Dst = base handle
	OpClear        // clear(A); Dst = base handle
	OpUnion        // union(A, B); Dst = base handle

	// Enumeration translations.
	OpEnc     // Dst = enc(A, B)
	OpDec     // Dst = dec(A, B)
	OpEnumAdd // (Dst, Dst2) = add(A, B)

	// Scalar binary ops over registers A and B. Integer
	// add/sub/mul wrap identically for signed and unsigned.
	OpAddI
	OpSubI
	OpMulI
	OpDivU
	OpDivS
	OpRemU
	OpRemS
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrU
	OpShrS
	OpMinU
	OpMinS
	OpMaxU
	OpMaxS
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpMinF
	OpMaxF

	// Comparisons; Aux carries the ir.CmpKind for the ordered forms.
	OpCmpEq
	OpCmpNe
	OpCmpU // unsigned integer order
	OpCmpS // signed integer order
	OpCmpF // float order
	OpCmpG // generic order via interp.CmpVal (strings, tuples)

	OpNot    // Dst = !A
	OpSelect // Dst = A ? B : C
	OpCastF  // Dst = float(A)
	OpCastI  // Dst = int(A) & Imm
	OpIdent  // Dst = A, counted as a step (cast to a non-scalar type)
	OpTuple  // Dst = tuple(ArgLists[Aux]...)
	OpField  // Dst = A.field[Aux]

	OpEmit // emit(A)
	OpROI  // region-of-interest marker

	nOps
)

var opNames = [nOps]string{
	OpNop: "nop", OpMove: "move", OpJump: "jump", OpJumpIf: "jump.if", OpNest: "nest", OpJumpIfNot: "jump.ifnot",
	OpStep: "step", OpForEach: "foreach", OpReturn: "ret", OpReturnVoid: "ret.void",
	OpCall: "call", OpRaise: "raise",
	OpNewColl: "newcoll", OpNewEnum: "newenum", OpEnumGlobal: "enumglobal",
	OpReadMap: "read.map", OpReadSeq: "read.seq", OpHasSet: "has.set", OpHasMap: "has.map",
	OpSize: "size", OpWriteMap: "write.map", OpWriteSeq: "write.seq",
	OpInsertSet: "insert.set", OpInsertMap: "insert.map",
	OpInsertSeqEnd: "insert.seq.end", OpInsertSeqAt: "insert.seq.at",
	OpRemoveSet: "remove.set", OpRemoveMap: "remove.map", OpRemoveSeq: "remove.seq",
	OpClear: "clear", OpUnion: "union",
	OpEnc: "enc", OpDec: "dec", OpEnumAdd: "addenum",
	OpAddI: "add.i", OpSubI: "sub.i", OpMulI: "mul.i",
	OpDivU: "div.u", OpDivS: "div.s", OpRemU: "rem.u", OpRemS: "rem.s",
	OpAndI: "and.i", OpOrI: "or.i", OpXorI: "xor.i", OpShlI: "shl.i",
	OpShrU: "shr.u", OpShrS: "shr.s",
	OpMinU: "min.u", OpMinS: "min.s", OpMaxU: "max.u", OpMaxS: "max.s",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f",
	OpMinF: "min.f", OpMaxF: "max.f",
	OpCmpEq: "cmp.eq", OpCmpNe: "cmp.ne", OpCmpU: "cmp.u", OpCmpS: "cmp.s",
	OpCmpF: "cmp.f", OpCmpG: "cmp.g",
	OpNot: "not", OpSelect: "select", OpCastF: "cast.f", OpCastI: "cast.i",
	OpIdent: "ident", OpTuple: "tuple", OpField: "field",
	OpEmit: "emit", OpROI: "roi",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op(?)"
}

// Steps reports whether the opcode counts as one interpreter step.
func (o Op) Steps() bool { return o > OpJumpIfNot }

// The roles of an OpNest hop (its Aux2). The interpreter resolves an
// instruction's nesting paths after it counts the instruction's step
// and runs its interruption test, but a for-each's collection before
// the loop's step, with no test.
const (
	// NestForEach feeds a for-each's collection: no interruption test,
	// and a failed read counts nothing more.
	NestForEach int32 = iota
	// NestStep feeds a stepping instruction: the hop first runs that
	// instruction's interruption test at its step count (a hop grows
	// nothing, so the instruction's own test then agrees), and any
	// failure counts the instruction's step.
	NestStep
	// NestSeqPos is NestStep for a seq insert's position, which the
	// interpreter resolves after it counts the insert: a failed read
	// also counts the insert on the sequence in register C.
	NestSeqPos
)

// Instr is one fixed-shape bytecode instruction. Field meaning is
// per-opcode (see the Op constants); A, B and C are registers, -1 when
// the opcode does not read them.
type Instr struct {
	Op        Op
	Dst, Dst2 int32
	A, B, C   int32
	Aux, Aux2 int32
	Imm       uint64
}

// AllocSite describes one OpNew allocation site of the program: the
// allocated type (as mutated by ADE's selection), whether the
// interpreter's memory model classifies it iteration-local, and the
// site's stable telemetry identity (the enclosing function plus the
// allocation's ordinal among the function's `new` instructions in walk
// order — the same key the compiler's remarks carry).
type AllocSite struct {
	Type      *ir.CollType
	IterLocal bool
	Fn        string
	Alloc     int
}

// Func is one compiled function.
type Func struct {
	Name      string
	ParamRegs []int32
	// NumSlots counts the registers holding IR values, the parameters
	// first; coalescing gives a phi and its arguments one register
	// where their live ranges allow. Registers [NumSlots,
	// NumSlots+len(Consts)) hold the constant pool, one register per
	// distinct value, preloaded on call; any registers above are
	// scratch for latch staging and hop results.
	NumSlots int
	Consts   []interp.Val
	FrameLen int
	Code     []Instr
	ArgLists [][]int32
}

// Prog is a compiled program.
type Prog struct {
	Funcs      []*Func
	ByName     map[string]int
	AllocSites []AllocSite
	Globals    []string // enumeration global names
	Msgs       []string // OpRaise diagnostics
	// EnumKeys holds the IR domain type of every enumeration-creating
	// instruction (nil when it binds no result), from which the
	// runtime picks the enumeration's storage.
	EnumKeys []ir.Type
}
