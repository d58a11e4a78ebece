package ir

import "memoir/internal/collections"

// Opcode enumerates MEMOIR instructions (Figure 1) plus the ADE
// translation intrinsics of §III-B and a handful of scalar LLVM-style
// operations.
type Opcode uint8

const (
	OpInvalid Opcode = iota

	// Collection construction and queries.
	OpNew  // results[0] = new AllocType()
	OpRead // read(coll, key) -> value
	OpHas  // has(coll, key) -> bool
	OpSize // size(coll) -> u64

	// Collection updates; result is the new SSA state of the base
	// collection.
	OpWrite  // write(coll, key, value); key must be present
	OpInsert // insert(coll, key) / insert(seq, pos, value)
	OpRemove // remove(coll, key)
	OpClear  // clear(coll)
	OpUnion  // union(dst, src) set union

	// ADE translation intrinsics (§III-B).
	OpNewEnum    // results[0] = new Enum
	OpEnumGlobal // results[0] = the enumeration global named Callee (§III-F)
	OpEncode     // enc(enum, value) -> idx; UB if absent
	OpDecode     // dec(enum, idx) -> value; UB if absent
	OpEnumAdd    // add(enum, value) -> (enum', idx)

	// Scalars and tuples.
	OpBin    // binary arithmetic/logic
	OpCmp    // comparison -> bool
	OpNot    // logical not
	OpSelect // select(cond, a, b)
	OpCast   // numeric conversion to CastTo
	OpTuple  // tuple(a, b, ...) construction
	OpField  // field(tuple, n) access; field index in FieldIdx

	// Control and effects.
	OpPhi  // positional phi (if-exit, loop-header, loop-exit)
	OpRet  // return
	OpCall // direct call to a program function
	OpEmit // append scalar to the observable output stream
	OpROI  // marks the start of the region of interest (timing fence)
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpNew:     "new", OpRead: "read", OpHas: "has", OpSize: "size",
	OpWrite: "write", OpInsert: "insert", OpRemove: "remove",
	OpClear: "clear", OpUnion: "union",
	OpNewEnum: "newenum", OpEnumGlobal: "enumglobal",
	OpEncode: "enc", OpDecode: "dec", OpEnumAdd: "addenum",
	OpBin: "bin", OpCmp: "cmp", OpNot: "not", OpSelect: "select", OpCast: "cast",
	OpTuple: "tuple", OpField: "field",
	OpPhi: "phi", OpRet: "ret", OpCall: "call", OpEmit: "emit", OpROI: "roi",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op(?)"
}

// IsUpdate reports whether the op redefines its base collection
// (produces a new SSA state for args[0]).
func (o Opcode) IsUpdate() bool {
	switch o {
	case OpWrite, OpInsert, OpRemove, OpClear, OpUnion:
		return true
	}
	return false
}

// BinKind enumerates binary scalar operations.
type BinKind uint8

const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinMin
	BinMax
)

var binNames = [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "min", "max"}

func (b BinKind) String() string { return binNames[b] }

// BinByName resolves a binary op mnemonic.
func BinByName(s string) (BinKind, bool) {
	for i, n := range binNames {
		if n == s {
			return BinKind(i), true
		}
	}
	return 0, false
}

// CmpKind enumerates comparisons.
type CmpKind uint8

const (
	CmpEq CmpKind = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = [...]string{"eq", "neq", "lt", "le", "gt", "ge"}

func (c CmpKind) String() string { return cmpNames[c] }

// CmpByName resolves a comparison mnemonic.
func CmpByName(s string) (CmpKind, bool) {
	for i, n := range cmpNames {
		if n == s {
			return CmpKind(i), true
		}
	}
	return 0, false
}

// Instr is a single instruction. Results are SSA values defined by
// the instruction; Args are the operands (with optional nesting
// paths).
type Instr struct {
	Op      Opcode
	Results []*Value
	Args    []Operand

	Bin      BinKind   // OpBin
	Cmp      CmpKind   // OpCmp
	Alloc    *CollType // OpNew: the allocated type (mutated by selection)
	CastTo   Type      // OpCast
	Callee   string    // OpCall
	FieldIdx int       // OpField
	Dir      *Directive

	// PhiRole is fixed by the instruction's structural position; the
	// verifier checks it.
	PhiRole PhiRole

	// Pos is the 1-based source line of the instruction in the `.mir`
	// text it was parsed from; 0 for builder-created or inserted
	// instructions. Cloning preserves it.
	Pos int
}

func (*Instr) isNode() {}

// Result returns the primary result value (or nil).
func (in *Instr) Result() *Value {
	if len(in.Results) == 0 {
		return nil
	}
	return in.Results[0]
}

// EnumKey returns the domain of the enumeration an OpNewEnum or
// OpEnumGlobal instruction yields, or nil when it binds no result.
func (in *Instr) EnumKey() Type {
	if r := in.Result(); r != nil {
		if ct, ok := r.Type.(*CollType); ok && ct.Kind == KEnum {
			return ct.Key
		}
	}
	return nil
}

// PhiRole records where a phi sits (§III-A's implicit ordering).
type PhiRole uint8

const (
	PhiNone   PhiRole = iota
	PhiIfExit         // phi(value_if_true, value_if_false)
	PhiLoopHeader
	PhiLoopExit // phi(final_value)
)

// Directive carries a `#pragma ade` annotation on an allocation
// (§III-I, Listing 5).
type Directive struct {
	Enumerate   bool
	NoEnumerate bool
	NoShare     bool     // never share an enumeration with any other collection
	NoShareWith []string // named allocations to not share with
	ShareGroup  string   // named share group
	Select      collections.Impl
	Inner       *Directive // applies to the collections nested one level down

	// Pos is the 1-based source line of the pragma; 0 when built
	// programmatically.
	Pos int
}

// Node is an element of a structured block: an instruction or a
// control-flow construct.
type Node interface{ isNode() }

// Block is a sequence of nodes.
type Block struct {
	Nodes []Node
}

// Append adds nodes at the end of the block.
func (b *Block) Append(ns ...Node) { b.Nodes = append(b.Nodes, ns...) }

// If is a structured if-else. ExitPhis follow the construct and select
// (then-value, else-value) in that order.
type If struct {
	Cond     *Value
	Then     *Block
	Else     *Block
	ExitPhis []*Instr

	// Pos is the source line of the `if` header; 0 when built.
	Pos int
}

func (*If) isNode() {}

// ForEach iterates over a collection, binding Key and Val for each
// element (the for-each loop the paper adds to MEMOIR). For sequences
// Key is the position; for sets Val equals the element and Key is the
// element as well; for maps Key/Val are the entry pair. HeaderPhis are
// loop-carried: phi(init, latch). ExitPhis are phi(final).
type ForEach struct {
	Coll       Operand
	Key, Val   *Value
	HeaderPhis []*Instr
	Body       *Block
	ExitPhis   []*Instr

	// Pos is the source line of the `for` header; 0 when built.
	Pos int
}

func (*ForEach) isNode() {}

// DoWhile runs Body, then repeats while Cond (an SSA value defined in
// Body) is true.
type DoWhile struct {
	HeaderPhis []*Instr
	Body       *Block
	Cond       *Value
	ExitPhis   []*Instr

	// Pos is the source line of the `do` header; 0 when built.
	Pos int
}

func (*DoWhile) isNode() {}

// Func is a MEMOIR function: parameters, return type, and a structured
// body.
type Func struct {
	Name   string
	Params []*Value
	Ret    Type
	Body   *Block

	// Exported functions are externally visible: ADE must clone them
	// rather than transform them in place (§III-F).
	Exported bool

	// Pos is the source line of the `fn` header; 0 when built.
	Pos int

	nextID int
}

// NewValueName generates a fresh SSA name with the given prefix.
func (f *Func) NewValueName(prefix string) string {
	f.nextID++
	return prefix + "." + itoa(f.nextID)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Program is a set of functions; Order preserves declaration order for
// printing and deterministic iteration.
type Program struct {
	Funcs map[string]*Func
	Order []string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Funcs: map[string]*Func{}}
}

// Add registers fn in the program.
func (p *Program) Add(fn *Func) {
	if _, dup := p.Funcs[fn.Name]; !dup {
		p.Order = append(p.Order, fn.Name)
	}
	p.Funcs[fn.Name] = fn
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func { return p.Funcs[name] }
