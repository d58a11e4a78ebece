package bytecode

import (
	"fmt"

	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// Compile lowers prog to bytecode. Functions are compiled in
// declaration order; the result is deterministic for a given program,
// so disassembly is diffable and golden-testable.
//
// Compilation bakes in every decision the interpreter makes from
// static information: collection operations are specialized by the
// operand's static collection kind, scalar arithmetic by the operand
// scalar type, and conditions the interpreter diagnoses at run time
// from static facts (kind mismatches, unknown callees, returns inside
// loops) become OpRaise instructions carrying the interpreter's exact
// message — they fail when executed, not at compile time, preserving
// error-for-error parity.
func Compile(prog *ir.Program) (bc *Prog, err error) {
	pc := &progCompiler{
		ir:        prog,
		out:       &Prog{ByName: map[string]int{}},
		globalIdx: map[string]int32{},
	}
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(compileErr)
			if !ok {
				panic(r)
			}
			bc, err = nil, ce.err
		}
	}()
	for i, name := range prog.Order {
		pc.out.ByName[name] = i
	}
	for _, name := range prog.Order {
		pc.out.Funcs = append(pc.out.Funcs, pc.compileFunc(prog.Funcs[name]))
	}
	return pc.out, nil
}

type compileErr struct{ err error }

type progCompiler struct {
	ir        *ir.Program
	out       *Prog
	globalIdx map[string]int32
	co        coalescer
}

func (p *progCompiler) fail(format string, args ...any) {
	panic(compileErr{fmt.Errorf("bytecode: "+format, args...)})
}

func (p *progCompiler) globalRef(name string) int32 {
	if i, ok := p.globalIdx[name]; ok {
		return i
	}
	i := int32(len(p.out.Globals))
	p.out.Globals = append(p.out.Globals, name)
	p.globalIdx[name] = i
	return i
}

// enumKey records the domain type of enumeration-creating instruction
// in and returns its EnumKeys index.
func (p *progCompiler) enumKey(in *ir.Instr) int32 {
	p.out.EnumKeys = append(p.out.EnumKeys, in.EnumKey())
	return int32(len(p.out.EnumKeys) - 1)
}

func (p *progCompiler) msgRef(msg string) int32 {
	for i, m := range p.out.Msgs {
		if m == msg {
			return int32(i)
		}
	}
	p.out.Msgs = append(p.out.Msgs, msg)
	return int32(len(p.out.Msgs) - 1)
}

type loopKind uint8

const (
	loopForEach loopKind = iota
	loopDoWhile
)

type funcCompiler struct {
	p  *progCompiler
	fn *ir.Func
	bc *Func

	pool        map[poolKey]int32 // constant register by value
	iterLocal   map[*ir.Instr]bool
	allocOrd    map[*ir.Instr]int
	scratchBase int
	maxScratch  int
	loops       []loopKind
	codeBound   int // the pre-scan's bound on the code length

	// The hops of the instruction being compiled: how many scratch
	// registers they hold, and their Nest* role.
	nested int
	role   int32
}

func (p *progCompiler) compileFunc(fn *ir.Func) *Func {
	numSlots := ir.FinalizeSlots(fn)
	c := &funcCompiler{
		p:         p,
		fn:        fn,
		bc:        &Func{Name: fn.Name, NumSlots: numSlots},
		pool:      map[poolKey]int32{},
		iterLocal: ir.IterLocalAllocs(fn),
		allocOrd:  telemetry.AllocOrdinals(fn),
	}
	for _, prm := range fn.Params {
		c.bc.ParamRegs = append(c.bc.ParamRegs, int32(prm.Slot))
	}
	// Codegen names IR slot r by register r; the constant pool occupies
	// registers [numSlots, numSlots+nConsts) and the scratch registers
	// of latch staging and hops sit above it. The coalescer then merges
	// and renumbers them.
	c.scanBlock(fn.Body)
	c.scratchBase = numSlots + len(c.bc.Consts)
	c.bc.Code = make([]Instr, 0, c.codeBound+1)
	c.genBlock(fn.Body)
	c.emit(Instr{Op: OpReturnVoid})
	c.bc.FrameLen = c.scratchBase + c.maxScratch
	p.co.coalesce(c.bc, numSlots, c.scratchBase)
	return c.bc
}

// --- constant-pool pre-scan (same traversal order as codegen) ---

// poolKey identifies a constant by its materialized value, so equal
// literals share one pool register.
type poolKey struct {
	k    interp.ValKind
	bits uint64
	str  string
}

func keyOf(val interp.Val) poolKey { return poolKey{val.K, val.I, val.Str()} }

func (c *funcCompiler) scanValue(v *ir.Value) {
	if v == nil || v.Kind != ir.VConst {
		return
	}
	val := constVal(v)
	if _, ok := c.pool[keyOf(val)]; !ok {
		c.pool[keyOf(val)] = int32(c.bc.NumSlots + len(c.bc.Consts))
		c.bc.Consts = append(c.bc.Consts, val)
	}
}

func (c *funcCompiler) scanOperand(o ir.Operand) {
	c.scanValue(o.Base)
	if len(o.Path) > 0 {
		c.codeBound += len(o.Path) + 1 // the hops, and an update's handle move
	}
	for _, ix := range o.Path {
		if ix.Kind == ir.IdxValue {
			c.scanValue(ix.Val)
		}
	}
}

func (c *funcCompiler) scanInstr(in *ir.Instr) {
	for _, a := range in.Args {
		c.scanOperand(a)
	}
}

// scanBlock also bounds the code genBlock emits for b: one instruction
// per IR instruction, the structural jumps and step, per phi its moves,
// with latch copies counted as staged, and per nesting path its hops.
func (c *funcCompiler) scanBlock(b *ir.Block) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ir.Instr:
			c.codeBound++
			c.scanInstr(n)
		case *ir.If:
			c.codeBound += 2 + 2*len(n.ExitPhis)
			c.scanValue(n.Cond)
			c.scanBlock(n.Then)
			c.scanBlock(n.Else)
			for _, p := range n.ExitPhis {
				c.scanInstr(p)
			}
		case *ir.ForEach:
			c.codeBound += 1 + 3*len(n.HeaderPhis) + len(n.ExitPhis)
			c.scanOperand(n.Coll)
			for _, p := range n.HeaderPhis {
				c.scanInstr(p)
			}
			c.scanBlock(n.Body)
			for _, p := range n.ExitPhis {
				c.scanInstr(p)
			}
		case *ir.DoWhile:
			c.codeBound += 3 + 5*len(n.HeaderPhis) + len(n.ExitPhis)
			for _, p := range n.HeaderPhis {
				c.scanInstr(p)
			}
			c.scanBlock(n.Body)
			c.scanValue(n.Cond)
			for _, p := range n.ExitPhis {
				c.scanInstr(p)
			}
		}
	}
}

// constVal mirrors the interpreter's constant materialization.
func constVal(v *ir.Value) interp.Val {
	if st, ok := v.Type.(*ir.ScalarType); ok {
		switch st.Kind {
		case ir.F32, ir.F64:
			return interp.FloatV(v.ConstFlt)
		case ir.Str:
			return interp.StrV(v.ConstStr)
		}
	}
	return interp.IntV(v.ConstInt)
}

// --- codegen ---

// emit appends in with the operands its opcode does not read set to -1.
func (c *funcCompiler) emit(in Instr) int {
	ra, rb, rc := reads(&in)
	if !ra {
		in.A = -1
	}
	if !rb {
		in.B = -1
	}
	if !rc {
		in.C = -1
	}
	c.bc.Code = append(c.bc.Code, in)
	return len(c.bc.Code) - 1
}

func (c *funcCompiler) here() int32 { return int32(len(c.bc.Code)) }

func (c *funcCompiler) regOf(v *ir.Value) int32 {
	if v.Kind == ir.VConst {
		r, ok := c.pool[keyOf(constVal(v))]
		if !ok {
			c.p.fail("@%s: constant %s missed by pre-scan", c.fn.Name, v.Name)
		}
		return r
	}
	return int32(v.Slot)
}

// operand returns the register holding o's value. A nesting path is
// lowered to one hop per step, all into the next scratch register of
// the instruction being compiled, which calls operand in the order the
// interpreter resolves its operands. A hop's result dies at that
// instruction, so the next instruction's hops reuse the registers.
func (c *funcCompiler) operand(o ir.Operand) int32 {
	r := c.regOf(o.Base)
	if len(o.Path) == 0 {
		return r
	}
	dst := int32(c.scratchBase + c.nested)
	c.nested++
	c.maxScratch = max(c.maxScratch, c.nested)
	for _, ix := range o.Path {
		hop := Instr{Op: OpNest, Dst: dst, A: r, Aux: int32(ix.Kind), Aux2: c.role, Imm: ix.Num}
		if ix.Kind == ir.IdxValue {
			hop.B = c.regOf(ix.Val)
		}
		c.emit(hop)
		r = dst
	}
	return r
}

func (c *funcCompiler) argList(args []ir.Operand) int32 {
	list := make([]int32, len(args))
	for i, a := range args {
		list[i] = c.operand(a)
	}
	c.bc.ArgLists = append(c.bc.ArgLists, list)
	return int32(len(c.bc.ArgLists) - 1)
}

// raise emits the interpreter's runtime diagnostic, pre-prefixed with
// the function name exactly as interp's execErr formats it.
func (c *funcCompiler) raise(format string, args ...any) {
	msg := "@" + c.fn.Name + ": " + fmt.Sprintf(format, args...)
	c.emit(Instr{Op: OpRaise, Aux: c.p.msgRef(msg)})
}

// phiMoves lowers sequential phi assignment (if-exit, loop-init,
// loop-exit): each phi takes its argIdx-th argument in order.
func (c *funcCompiler) phiMoves(phis []*ir.Instr, argIdx int) {
	for _, p := range phis {
		dst := int32(p.Result().Slot)
		src := c.regOf(p.Args[argIdx].Base)
		if src != dst {
			c.emit(Instr{Op: OpMove, Dst: dst, A: src})
		}
	}
}

// latchMoves lowers the parallel latch assignment of loop-header phis:
// all sources read before any destination is written. Direct moves are
// used unless a later source would read an earlier destination, in
// which case the sources are staged through scratch registers.
func (c *funcCompiler) latchMoves(phis []*ir.Instr) {
	dst := make([]int32, len(phis))
	src := make([]int32, len(phis))
	for i, p := range phis {
		dst[i] = int32(p.Result().Slot)
		src[i] = c.regOf(p.Args[1].Base)
	}
	conflict := false
	for j := range phis {
		for i := 0; i < j; i++ {
			if src[j] == dst[i] {
				conflict = true
			}
		}
	}
	if !conflict {
		for i := range phis {
			if src[i] != dst[i] {
				c.emit(Instr{Op: OpMove, Dst: dst[i], A: src[i]})
			}
		}
		return
	}
	if len(phis) > c.maxScratch {
		c.maxScratch = len(phis)
	}
	for i := range phis {
		c.emit(Instr{Op: OpMove, Dst: int32(c.scratchBase + i), A: src[i]})
	}
	for i := range phis {
		c.emit(Instr{Op: OpMove, Dst: dst[i], A: int32(c.scratchBase + i)})
	}
}

func (c *funcCompiler) genBlock(b *ir.Block) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ir.Instr:
			c.genInstr(n)
		case *ir.If:
			c.genIf(n)
		case *ir.ForEach:
			c.genForEach(n)
		case *ir.DoWhile:
			c.genDoWhile(n)
		}
	}
}

func (c *funcCompiler) genIf(n *ir.If) {
	jElse := c.emit(Instr{Op: OpJumpIfNot, A: c.regOf(n.Cond)})
	c.genBlock(n.Then)
	c.phiMoves(n.ExitPhis, 0)
	jEnd := c.emit(Instr{Op: OpJump})
	c.bc.Code[jElse].Aux = c.here()
	c.genBlock(n.Else)
	c.phiMoves(n.ExitPhis, 1)
	c.bc.Code[jEnd].Aux = c.here()
}

func (c *funcCompiler) genForEach(n *ir.ForEach) {
	// The interpreter resolves the collection before the header phis
	// and the loop's step.
	c.nested, c.role = 0, NestForEach
	coll := c.operand(n.Coll)
	c.phiMoves(n.HeaderPhis, 0)
	fe := c.emit(Instr{Op: OpForEach, A: coll, Dst: int32(n.Key.Slot), Dst2: int32(n.Val.Slot)})
	c.loops = append(c.loops, loopForEach)
	c.bc.Code[fe].Aux = c.here()
	c.genBlock(n.Body)
	c.latchMoves(n.HeaderPhis)
	c.loops = c.loops[:len(c.loops)-1]
	c.bc.Code[fe].Aux2 = c.here()
	c.phiMoves(n.ExitPhis, 0)
}

func (c *funcCompiler) genDoWhile(n *ir.DoWhile) {
	c.phiMoves(n.HeaderPhis, 0)
	head := c.here()
	c.emit(Instr{Op: OpStep})
	c.loops = append(c.loops, loopDoWhile)
	c.genBlock(n.Body)
	c.loops = c.loops[:len(c.loops)-1]
	jExit := c.emit(Instr{Op: OpJumpIfNot, A: c.regOf(n.Cond)})
	c.latchMoves(n.HeaderPhis)
	c.emit(Instr{Op: OpJump, Aux: head})
	c.bc.Code[jExit].Aux = c.here()
	// At exit the header phis take their latch values one final time so
	// exit phis referencing them see the final state.
	c.latchMoves(n.HeaderPhis)
	c.phiMoves(n.ExitPhis, 0)
}

func (c *funcCompiler) collKind(o ir.Operand) (ir.CollKind, bool) {
	ct := ir.AsColl(o.InnerType())
	if ct == nil {
		return 0, false
	}
	return ct.Kind, true
}

func (c *funcCompiler) resultReg(in *ir.Instr, i int) int32 {
	if i >= len(in.Results) {
		return -1
	}
	return int32(in.Results[i].Slot)
}

// discardReg returns a frame register that swallows the result of a
// bare statement (an instruction whose SSA value is never bound, e.g.
// `sub(0,0)` on a line of its own). The instruction must still execute
// — runtime faults like division by zero fire identically on both
// engines — but unconditional-write opcodes need a real destination.
// The first scratch register is reused: discards are pure writes that
// follow every read of the instruction's hops, and latch staging never
// spans another instruction, so the slot can never be read with a
// discarded value in it.
func (c *funcCompiler) discardReg() int32 {
	if c.maxScratch == 0 {
		c.maxScratch = 1
	}
	return int32(c.scratchBase)
}

// producesValue reports whether the IR opcode yields a result when one
// is bound — the opcodes whose bytecode lowering stores to Dst
// unconditionally. OpCall is excluded: its result store is
// runtime-guarded on Dst >= 0, and calls with ignored results are the
// common bare statement. OpRet/OpEmit/OpROI never have results.
func producesValue(op ir.Opcode) bool {
	switch op {
	case ir.OpNew, ir.OpRead, ir.OpHas, ir.OpSize,
		ir.OpWrite, ir.OpInsert, ir.OpRemove, ir.OpClear, ir.OpUnion,
		ir.OpNewEnum, ir.OpEnumGlobal, ir.OpEncode, ir.OpDecode, ir.OpEnumAdd,
		ir.OpBin, ir.OpCmp, ir.OpNot, ir.OpSelect, ir.OpCast,
		ir.OpTuple, ir.OpField, ir.OpPhi:
		return true
	}
	return false
}

// updatesBase reports whether the IR opcode's result is the handle of
// its base operand, which the VM copies from the update's register A.
func updatesBase(op ir.Opcode) bool {
	switch op {
	case ir.OpWrite, ir.OpInsert, ir.OpRemove, ir.OpClear, ir.OpUnion:
		return true
	}
	return false
}

func (c *funcCompiler) genInstr(in *ir.Instr) {
	c.nested, c.role = 0, NestStep
	dst := c.resultReg(in, 0)
	// When an update's base has a nesting path, its register A holds the
	// inner collection: the update writes scratch, and the base's own
	// handle is moved to the result after it.
	handle := int32(-1)
	if dst >= 0 && updatesBase(in.Op) && len(in.Args[0].Path) > 0 {
		handle, dst = dst, -1
	}
	if dst < 0 && producesValue(in.Op) {
		dst = c.discardReg()
	}
	switch in.Op {
	case ir.OpNew:
		site := int32(len(c.p.out.AllocSites))
		c.p.out.AllocSites = append(c.p.out.AllocSites, AllocSite{
			Type:      in.Alloc,
			IterLocal: c.iterLocal[in],
			Fn:        c.fn.Name,
			Alloc:     c.allocOrd[in],
		})
		c.emit(Instr{Op: OpNewColl, Dst: dst, Aux: site})

	case ir.OpNewEnum:
		c.emit(Instr{Op: OpNewEnum, Dst: dst, Aux: c.p.enumKey(in)})

	case ir.OpEnumGlobal:
		c.emit(Instr{Op: OpEnumGlobal, Dst: dst, Aux: c.p.globalRef(in.Callee), Aux2: c.p.enumKey(in)})

	case ir.OpRead:
		a, b := c.operand(in.Args[0]), c.operand(in.Args[1])
		switch k, _ := c.collKind(in.Args[0]); k {
		case ir.KMap:
			c.emit(Instr{Op: OpReadMap, Dst: dst, A: a, B: b})
		case ir.KSeq:
			c.emit(Instr{Op: OpReadSeq, Dst: dst, A: a, B: b})
		default:
			c.raise("read on set")
		}

	case ir.OpHas:
		a, b := c.operand(in.Args[0]), c.operand(in.Args[1])
		switch k, _ := c.collKind(in.Args[0]); k {
		case ir.KSet:
			c.emit(Instr{Op: OpHasSet, Dst: dst, A: a, B: b})
		case ir.KMap:
			c.emit(Instr{Op: OpHasMap, Dst: dst, A: a, B: b})
		default:
			c.raise("has on seq")
		}

	case ir.OpSize:
		c.emit(Instr{Op: OpSize, Dst: dst, A: c.operand(in.Args[0])})

	case ir.OpWrite:
		a, b, v := c.operand(in.Args[0]), c.operand(in.Args[1]), c.operand(in.Args[2])
		switch k, _ := c.collKind(in.Args[0]); k {
		case ir.KMap:
			c.emit(Instr{Op: OpWriteMap, Dst: dst, A: a, B: b, C: v})
		case ir.KSeq:
			c.emit(Instr{Op: OpWriteSeq, Dst: dst, A: a, B: b, C: v})
		default:
			c.raise("write on set")
			return
		}

	case ir.OpInsert:
		a := c.operand(in.Args[0])
		k, ok := c.collKind(in.Args[0])
		if !ok {
			c.p.fail("@%s: insert on non-collection operand", c.fn.Name)
		}
		switch k {
		case ir.KSet:
			c.emit(Instr{Op: OpInsertSet, Dst: dst, A: a, B: c.operand(in.Args[1])})
		case ir.KMap:
			c.emit(Instr{Op: OpInsertMap, Dst: dst, A: a, B: c.operand(in.Args[1])})
		case ir.KSeq:
			pos := in.Args[1]
			v := c.operand(in.Args[2])
			if pos.Base == nil && len(pos.Path) == 1 && pos.Path[0].Kind == ir.IdxEnd {
				c.emit(Instr{Op: OpInsertSeqEnd, Dst: dst, A: a, C: v})
				break
			}
			hops := len(c.bc.Code)
			b := c.operand(pos)
			for i := hops; i < len(c.bc.Code); i++ {
				c.bc.Code[i].Aux2, c.bc.Code[i].C = NestSeqPos, a
			}
			c.emit(Instr{Op: OpInsertSeqAt, Dst: dst, A: a, B: b, C: v})
		default:
			c.p.fail("@%s: insert on %v", c.fn.Name, k)
		}

	case ir.OpRemove:
		a, b := c.operand(in.Args[0]), c.operand(in.Args[1])
		switch k, _ := c.collKind(in.Args[0]); k {
		case ir.KSet:
			c.emit(Instr{Op: OpRemoveSet, Dst: dst, A: a, B: b})
		case ir.KMap:
			c.emit(Instr{Op: OpRemoveMap, Dst: dst, A: a, B: b})
		case ir.KSeq:
			c.emit(Instr{Op: OpRemoveSeq, Dst: dst, A: a, B: b})
		default:
			c.p.fail("@%s: remove on %v", c.fn.Name, k)
		}

	case ir.OpClear:
		c.emit(Instr{Op: OpClear, Dst: dst, A: c.operand(in.Args[0])})

	case ir.OpUnion:
		a, b := c.operand(in.Args[0]), c.operand(in.Args[1])
		c.emit(Instr{Op: OpUnion, Dst: dst, A: a, B: b})

	case ir.OpEncode:
		c.emit(Instr{Op: OpEnc, Dst: dst, A: c.regOf(in.Args[0].Base), B: c.operand(in.Args[1])})

	case ir.OpDecode:
		c.emit(Instr{Op: OpDec, Dst: dst, A: c.regOf(in.Args[0].Base), B: c.operand(in.Args[1])})

	case ir.OpEnumAdd:
		c.emit(Instr{
			Op: OpEnumAdd, Dst: dst, Dst2: c.resultReg(in, 1),
			A: c.regOf(in.Args[0].Base), B: c.operand(in.Args[1]),
		})

	case ir.OpBin:
		c.genBin(in, dst)

	case ir.OpCmp:
		c.genCmp(in, dst)

	case ir.OpNot:
		c.emit(Instr{Op: OpNot, Dst: dst, A: c.regOf(in.Args[0].Base)})

	case ir.OpSelect:
		c.emit(Instr{
			Op: OpSelect, Dst: dst,
			A: c.regOf(in.Args[0].Base), B: c.regOf(in.Args[1].Base), C: c.regOf(in.Args[2].Base),
		})

	case ir.OpCast:
		a := c.regOf(in.Args[0].Base)
		st, ok := in.CastTo.(*ir.ScalarType)
		switch {
		case !ok:
			c.emit(Instr{Op: OpIdent, Dst: dst, A: a})
		case st.Kind == ir.F32 || st.Kind == ir.F64:
			c.emit(Instr{Op: OpCastF, Dst: dst, A: a})
		default:
			mask := ^uint64(0)
			switch st.Bits() {
			case 8:
				mask = 0xff
			case 16:
				mask = 0xffff
			case 32:
				mask = 0xffffffff
			}
			c.emit(Instr{Op: OpCastI, Dst: dst, Imm: mask, A: a})
		}

	case ir.OpTuple:
		c.emit(Instr{Op: OpTuple, Dst: dst, Aux: c.argList(in.Args)})

	case ir.OpField:
		c.emit(Instr{Op: OpField, Dst: dst, Aux: int32(in.FieldIdx), A: c.operand(in.Args[0])})

	case ir.OpEmit:
		c.emit(Instr{Op: OpEmit, A: c.operand(in.Args[0])})

	case ir.OpROI:
		c.emit(Instr{Op: OpROI})

	case ir.OpRet:
		a := int32(-1)
		if len(in.Args) > 0 {
			a = c.operand(in.Args[0])
		}
		if len(c.loops) > 0 {
			// The interpreter rejects returns that would break out of a
			// structured loop; the diagnosis names the innermost loop.
			if c.loops[len(c.loops)-1] == loopForEach {
				c.raise("return inside for-each is unsupported")
			} else {
				c.raise("return inside do-while is unsupported")
			}
			return
		}
		if a < 0 {
			c.emit(Instr{Op: OpReturnVoid})
		} else {
			c.emit(Instr{Op: OpReturn, A: a})
		}

	case ir.OpCall:
		idx, ok := c.p.out.ByName[in.Callee]
		if !ok {
			c.raise("call to unknown @%s", in.Callee)
			return
		}
		c.emit(Instr{Op: OpCall, Dst: dst, Aux: int32(idx), Aux2: c.argList(in.Args)})

	case ir.OpPhi:
		c.raise("phi executed outside structural position")

	default:
		c.raise("unimplemented op %v", in.Op)
	}
	if handle >= 0 {
		c.emit(Instr{Op: OpMove, Dst: handle, A: c.regOf(in.Args[0].Base)})
	}
}

func isFloat(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	return ok && (st.Kind == ir.F32 || st.Kind == ir.F64)
}

func intIsSigned(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	if !ok {
		return false
	}
	switch st.Kind {
	case ir.I8, ir.I16, ir.I32, ir.I64:
		return true
	}
	return false
}

// alwaysIntVal reports whether runtime values of t are always VInt,
// making a raw unsigned compare of the payload equivalent to the
// interpreter's generic CmpVal.
func alwaysIntVal(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	if !ok {
		return false
	}
	switch st.Kind {
	case ir.Bool, ir.U8, ir.U16, ir.U32, ir.U64, ir.Ptr, ir.Idx:
		return true
	}
	return false
}

func (c *funcCompiler) genBin(in *ir.Instr, dst int32) {
	a, b := c.regOf(in.Args[0].Base), c.regOf(in.Args[1].Base)
	t := in.Args[0].Base.Type
	var op Op
	if isFloat(t) {
		switch in.Bin {
		case ir.BinAdd:
			op = OpAddF
		case ir.BinSub:
			op = OpSubF
		case ir.BinMul:
			op = OpMulF
		case ir.BinDiv:
			op = OpDivF
		case ir.BinMin:
			op = OpMinF
		case ir.BinMax:
			op = OpMaxF
		default:
			// The interpreter counts the scalar step before diagnosing;
			// OpRaise carries no count, but the program aborts either way.
			c.raise("float %v unsupported", in.Bin)
			return
		}
	} else {
		signed := intIsSigned(t)
		pick := func(u, s Op) Op {
			if signed {
				return s
			}
			return u
		}
		switch in.Bin {
		case ir.BinAdd:
			op = OpAddI
		case ir.BinSub:
			op = OpSubI
		case ir.BinMul:
			op = OpMulI
		case ir.BinDiv:
			op = pick(OpDivU, OpDivS)
		case ir.BinRem:
			op = pick(OpRemU, OpRemS)
		case ir.BinAnd:
			op = OpAndI
		case ir.BinOr:
			op = OpOrI
		case ir.BinXor:
			op = OpXorI
		case ir.BinShl:
			op = OpShlI
		case ir.BinShr:
			op = pick(OpShrU, OpShrS)
		case ir.BinMin:
			op = pick(OpMinU, OpMinS)
		case ir.BinMax:
			op = pick(OpMaxU, OpMaxS)
		default:
			c.raise("unsupported bin op")
			return
		}
	}
	c.emit(Instr{Op: op, Dst: dst, A: a, B: b})
}

func (c *funcCompiler) genCmp(in *ir.Instr, dst int32) {
	a, b := c.regOf(in.Args[0].Base), c.regOf(in.Args[1].Base)
	t := in.Args[0].Base.Type
	var op Op
	switch {
	case in.Cmp == ir.CmpEq:
		op = OpCmpEq
	case in.Cmp == ir.CmpNe:
		op = OpCmpNe
	case isFloat(t):
		op = OpCmpF
	case intIsSigned(t):
		op = OpCmpS
	case alwaysIntVal(t):
		op = OpCmpU
	default:
		op = OpCmpG
	}
	c.emit(Instr{Op: op, Dst: dst, Aux: int32(in.Cmp), A: a, B: b})
}
