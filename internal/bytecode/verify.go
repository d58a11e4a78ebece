package bytecode

import (
	"fmt"

	"memoir/internal/ir"
)

// VerifyError is a positioned bytecode verification failure: the
// function, the pc of the offending instruction (-1 for function-level
// faults), and what went wrong.
type VerifyError struct {
	Fn  string
	PC  int
	Op  Op
	Msg string
}

func (e *VerifyError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("bytecode verify: @%s: %s", e.Fn, e.Msg)
	}
	return fmt.Sprintf("bytecode verify: @%s+%d (%s): %s", e.Fn, e.PC, e.Op, e.Msg)
}

// Verify checks every function of a compiled program: register
// definite-initialization, jump-target and frame-bounds validity, and
// collection-opcode kind agreement. A program that verifies cannot
// make the VM read an unwritten register, jump outside its code
// segment, index a missing constant pool/arg-list/function-table
// entry, or run a kind-specialized collection opcode against a
// register statically known to hold a different kind.
func Verify(p *Prog) error {
	v := &verifier{p: p}
	for _, f := range p.Funcs {
		if err := v.verify(f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunc checks a single compiled function against its program
// context (function table, allocation sites, globals, messages).
func VerifyFunc(p *Prog, f *Func) error {
	return (&verifier{p: p}).verify(f)
}

// verifier checks the functions of one program in turn; its dataflow
// scratch is reused from one function to the next.
type verifier struct {
	p *Prog
	f *Func

	// flowInit and flowKinds back every flowState of the current
	// function: one in-state per pc, then the working state and the
	// for-each body state. reached marks the pcs whose in-state is
	// set; queued those on the worklist, a FIFO ring of queuedN pcs
	// starting at work[head] (a pc is queued at most once, so the ring
	// never holds more than one slot per pc).
	flowInit  []uint64
	flowKinds []regKind
	reached   []bool
	queued    []bool
	work      []int
	head      int
	queuedN   int
}

func (v *verifier) verify(f *Func) error {
	v.f = f
	if err := v.structure(); err != nil {
		return err
	}
	return v.dataflow()
}

func (v *verifier) errf(pc int, format string, args ...any) error {
	op := OpNop
	if pc >= 0 && pc < len(v.f.Code) {
		op = v.f.Code[pc].Op
	}
	return &VerifyError{Fn: v.f.Name, PC: pc, Op: op, Msg: fmt.Sprintf(format, args...)}
}

// --- structural checks -------------------------------------------------

// reads reports which of A, B, C the VM dereferences unconditionally
// for the instruction.
func reads(in *Instr) (a, b, c bool) {
	switch in.Op {
	case OpNest:
		return true, in.Aux == int32(ir.IdxValue), in.Aux2 == NestSeqPos
	case OpMove, OpJumpIf, OpJumpIfNot, OpForEach, OpReturn,
		OpSize, OpClear, OpNot, OpCastF, OpCastI, OpIdent, OpField, OpEmit:
		return true, false, false
	case OpReadMap, OpReadSeq, OpHasSet, OpHasMap,
		OpInsertSet, OpInsertMap, OpRemoveSet, OpRemoveMap, OpRemoveSeq,
		OpUnion, OpEnc, OpDec, OpEnumAdd,
		OpAddI, OpSubI, OpMulI, OpDivU, OpDivS, OpRemU, OpRemS,
		OpAndI, OpOrI, OpXorI, OpShlI, OpShrU, OpShrS,
		OpMinU, OpMinS, OpMaxU, OpMaxS,
		OpAddF, OpSubF, OpMulF, OpDivF, OpMinF, OpMaxF,
		OpCmpEq, OpCmpNe, OpCmpU, OpCmpS, OpCmpF, OpCmpG:
		return true, true, false
	case OpWriteMap, OpWriteSeq, OpInsertSeqAt, OpSelect:
		return true, true, true
	case OpInsertSeqEnd:
		return true, false, true
	}
	return false, false, false
}

// writesDst reports whether the VM stores to Dst unconditionally (the
// register must be valid) for the opcode. OpCall and the Dst2 of
// OpEnumAdd are guarded by >= 0 at run time and excluded here.
func writesDst(op Op) bool {
	switch op {
	case OpMove, OpNest, OpNewColl, OpNewEnum, OpEnumGlobal,
		OpReadMap, OpReadSeq, OpHasSet, OpHasMap, OpSize,
		OpWriteMap, OpWriteSeq, OpInsertSet, OpInsertMap,
		OpInsertSeqEnd, OpInsertSeqAt, OpRemoveSet, OpRemoveMap,
		OpRemoveSeq, OpClear, OpUnion, OpEnc, OpDec, OpEnumAdd,
		OpAddI, OpSubI, OpMulI, OpDivU, OpDivS, OpRemU, OpRemS,
		OpAndI, OpOrI, OpXorI, OpShlI, OpShrU, OpShrS,
		OpMinU, OpMinS, OpMaxU, OpMaxS,
		OpAddF, OpSubF, OpMulF, OpDivF, OpMinF, OpMaxF,
		OpCmpEq, OpCmpNe, OpCmpU, OpCmpS, OpCmpF, OpCmpG,
		OpNot, OpSelect, OpCastF, OpCastI, OpIdent, OpTuple, OpField:
		return true
	}
	return false
}

func (v *verifier) checkReg(pc int, what string, r int32) error {
	if r < 0 || int(r) >= v.f.FrameLen {
		return v.errf(pc, "%s register %d outside frame [0,%d)", what, r, v.f.FrameLen)
	}
	return nil
}

func (v *verifier) checkArgList(pc int, idx int32) error {
	if idx < 0 || int(idx) >= len(v.f.ArgLists) {
		return v.errf(pc, "argument list %d outside table [0,%d)", idx, len(v.f.ArgLists))
	}
	for i, r := range v.f.ArgLists[idx] {
		if err := v.checkReg(pc, fmt.Sprintf("argument %d", i), r); err != nil {
			return err
		}
	}
	return nil
}

func (v *verifier) structure() error {
	f := v.f
	if f.FrameLen < f.NumSlots+len(f.Consts) {
		return v.errf(-1, "frame %d smaller than slots %d + consts %d",
			f.FrameLen, f.NumSlots, len(f.Consts))
	}
	for i, r := range f.ParamRegs {
		if r < 0 || int(r) >= f.NumSlots {
			return v.errf(-1, "parameter %d register %d outside slots [0,%d)", i, r, f.NumSlots)
		}
	}
	if len(f.Code) == 0 {
		return v.errf(-1, "empty code segment")
	}
	n := len(f.Code)
	for pc := range f.Code {
		in := &f.Code[pc]
		if in.Op >= nOps {
			return v.errf(pc, "unknown opcode %d", in.Op)
		}
		ra, rb, rc := reads(in)
		if ra {
			if err := v.checkReg(pc, "A", in.A); err != nil {
				return err
			}
		}
		if rb {
			if err := v.checkReg(pc, "B", in.B); err != nil {
				return err
			}
		}
		if rc {
			if err := v.checkReg(pc, "C", in.C); err != nil {
				return err
			}
		}
		if writesDst(in.Op) {
			if err := v.checkReg(pc, "destination", in.Dst); err != nil {
				return err
			}
		}
		switch in.Op {
		case OpJump, OpJumpIf, OpJumpIfNot:
			if in.Aux < 0 || int(in.Aux) >= n {
				return v.errf(pc, "jump target %d outside code [0,%d)", in.Aux, n)
			}
		case OpForEach:
			if err := v.checkReg(pc, "key", in.Dst); err != nil {
				return err
			}
			if err := v.checkReg(pc, "value", in.Dst2); err != nil {
				return err
			}
			if int(in.Aux) != pc+1 || in.Aux2 < in.Aux || int(in.Aux2) >= n {
				return v.errf(pc, "body segment [%d,%d) invalid for loop at %d (code length %d)",
					in.Aux, in.Aux2, pc, n)
			}
		case OpCall:
			if in.Aux < 0 || int(in.Aux) >= len(v.p.Funcs) {
				return v.errf(pc, "callee %d outside function table [0,%d)", in.Aux, len(v.p.Funcs))
			}
			if err := v.checkArgList(pc, in.Aux2); err != nil {
				return err
			}
			callee := v.p.Funcs[in.Aux]
			if n := len(v.f.ArgLists[in.Aux2]); n != len(callee.ParamRegs) {
				return v.errf(pc, "call of @%s passes %d arguments, callee takes %d",
					callee.Name, n, len(callee.ParamRegs))
			}
			if in.Dst >= 0 {
				if err := v.checkReg(pc, "destination", in.Dst); err != nil {
					return err
				}
			}
		case OpTuple:
			if err := v.checkArgList(pc, in.Aux); err != nil {
				return err
			}
		case OpRaise:
			if in.Aux < 0 || int(in.Aux) >= len(v.p.Msgs) {
				return v.errf(pc, "message %d outside table [0,%d)", in.Aux, len(v.p.Msgs))
			}
		case OpNewColl:
			if in.Aux < 0 || int(in.Aux) >= len(v.p.AllocSites) {
				return v.errf(pc, "allocation site %d outside table [0,%d)", in.Aux, len(v.p.AllocSites))
			}
			if v.p.AllocSites[in.Aux].Type == nil {
				return v.errf(pc, "allocation site %d has no type", in.Aux)
			}
		case OpNewEnum:
			if in.Aux < 0 || int(in.Aux) >= len(v.p.EnumKeys) {
				return v.errf(pc, "enumeration key %d outside table [0,%d)", in.Aux, len(v.p.EnumKeys))
			}
		case OpEnumGlobal:
			if in.Aux < 0 || int(in.Aux) >= len(v.p.Globals) {
				return v.errf(pc, "global %d outside table [0,%d)", in.Aux, len(v.p.Globals))
			}
			if in.Aux2 < 0 || int(in.Aux2) >= len(v.p.EnumKeys) {
				return v.errf(pc, "enumeration key %d outside table [0,%d)", in.Aux2, len(v.p.EnumKeys))
			}
		case OpEnumAdd:
			if in.Dst2 >= 0 {
				if err := v.checkReg(pc, "identifier", in.Dst2); err != nil {
					return err
				}
			}
		case OpCmpU, OpCmpS, OpCmpF, OpCmpG:
			if in.Aux < 0 || in.Aux > int32(ir.CmpGe) {
				return v.errf(pc, "comparison kind %d invalid", in.Aux)
			}
		case OpField:
			if in.Aux < 0 {
				return v.errf(pc, "field index %d negative", in.Aux)
			}
		case OpNest:
			if in.Aux < int32(ir.IdxValue) || in.Aux > int32(ir.IdxField) {
				return v.errf(pc, "index kind %d invalid", in.Aux)
			}
			if in.Aux2 < NestForEach || in.Aux2 > NestSeqPos {
				return v.errf(pc, "hop role %d invalid", in.Aux2)
			}
		}
	}
	return nil
}

// --- dataflow: definite initialization + kind agreement ----------------

// regKind is the per-register abstract kind: 0 when unknown, otherwise
// 1 + the collection kind (KEnum for enumeration handles).
type regKind = uint8

const kindUnknown regKind = 0

func known(k ir.CollKind) regKind { return regKind(k) + 1 }

// flowState is the per-pc dataflow fact: which registers definitely
// hold a value, and what collection kind (if statically known) each
// holds. Its slices are views into the verifier's scratch.
type flowState struct {
	init  []uint64
	kinds []regKind
}

func (s *flowState) copyFrom(src *flowState) {
	copy(s.init, src.init)
	copy(s.kinds, src.kinds)
}

func (s *flowState) has(r int32) bool     { return s.init[r/64]&(1<<(uint(r)%64)) != 0 }
func (s *flowState) mark(r int32)         { s.init[r/64] |= 1 << (uint(r) % 64) }
func (s *flowState) kind(r int32) regKind { return s.kinds[r] }

func (s *flowState) def(r int32, k regKind) {
	s.mark(r)
	s.kinds[r] = k
}

// meet intersects src into s (definite-init is a MUST analysis; kind
// facts drop to unknown on disagreement). Reports whether s changed.
func (s *flowState) meet(src *flowState) bool {
	changed := false
	for i, w := range s.init {
		if nw := w & src.init[i]; nw != w {
			s.init[i] = nw
			changed = true
		}
	}
	for i, k := range s.kinds {
		if k != kindUnknown && src.kinds[i] != k {
			s.kinds[i] = kindUnknown
			changed = true
		}
	}
	return changed
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// state returns the i-th flowState of the current function's scratch.
func (v *verifier) state(i int) flowState {
	words, frame := (v.f.FrameLen+63)/64, v.f.FrameLen
	return flowState{
		init:  v.flowInit[i*words : (i+1)*words : (i+1)*words],
		kinds: v.flowKinds[i*frame : (i+1)*frame : (i+1)*frame],
	}
}

func (v *verifier) dataflow() error {
	f := v.f
	n := len(f.Code)
	v.flowInit = resize(v.flowInit, (n+2)*((f.FrameLen+63)/64))
	v.flowKinds = resize(v.flowKinds, (n+2)*f.FrameLen)
	v.reached = resize(v.reached, n)
	v.queued = resize(v.queued, n)
	v.work = resize(v.work, n)
	clear(v.reached)
	clear(v.queued)
	v.head, v.queuedN = 0, 0
	st, body := v.state(n), v.state(n+1)

	clear(st.init)
	clear(st.kinds)
	for _, r := range f.ParamRegs {
		st.mark(r)
	}
	for i := range f.Consts {
		st.mark(int32(f.NumSlots + i))
	}
	v.push(0, &st)

	for v.queuedN > 0 {
		pc := v.work[v.head]
		v.head = (v.head + 1) % n
		v.queuedN--
		v.queued[pc] = false
		in := v.state(pc)
		st.copyFrom(&in)
		if err := v.transfer(pc, &st, &body); err != nil {
			return err
		}
	}
	return nil
}

// push merges out into the in-state of pc and queues pc if that
// changed it. A pc outside the code is ignored.
func (v *verifier) push(pc int, out *flowState) {
	if pc < 0 || pc >= len(v.f.Code) {
		return
	}
	in := v.state(pc)
	if !v.reached[pc] {
		v.reached[pc] = true
		in.copyFrom(out)
	} else if !in.meet(out) {
		return
	}
	if !v.queued[pc] {
		v.work[(v.head+v.queuedN)%len(v.work)] = pc
		v.queuedN++
		v.queued[pc] = true
	}
}

// transfer checks the instruction at pc against st, leaves st holding
// the post-state, and pushes each successor edge with its post-state
// in order. body is scratch for the for-each body edge.
func (v *verifier) transfer(pc int, st, body *flowState) error {
	f := v.f
	in := &f.Code[pc]

	use := func(what string, r int32) error {
		if !st.has(r) {
			return v.errf(pc, "%s reads register %d before it is written", what, r)
		}
		return nil
	}
	ra, rb, rc := reads(in)
	if ra {
		if err := use("A", in.A); err != nil {
			return err
		}
	}
	if rb {
		if err := use("B", in.B); err != nil {
			return err
		}
	}
	if rc {
		if err := use("C", in.C); err != nil {
			return err
		}
	}
	var args []int32
	switch in.Op {
	case OpCall:
		args = f.ArgLists[in.Aux2]
	case OpTuple:
		args = f.ArgLists[in.Aux]
	}
	for i, r := range args {
		if err := use(fmt.Sprintf("argument %d", i), r); err != nil {
			return err
		}
	}

	// Collection-kind agreement on register A (a hop's result is of
	// unknown kind).
	requireKind := func(want ir.CollKind, r int32) error {
		if k := st.kind(r); k != kindUnknown && k != known(want) {
			return v.errf(pc, "operates on %v but register %d holds %v",
				want, r, ir.CollKind(k-1))
		}
		return nil
	}
	var kindErr error
	switch in.Op {
	case OpReadMap, OpHasMap, OpWriteMap, OpInsertMap, OpRemoveMap:
		kindErr = requireKind(ir.KMap, in.A)
	case OpReadSeq, OpWriteSeq, OpInsertSeqEnd, OpInsertSeqAt, OpRemoveSeq:
		kindErr = requireKind(ir.KSeq, in.A)
	case OpHasSet, OpInsertSet, OpRemoveSet:
		kindErr = requireKind(ir.KSet, in.A)
	case OpEnc, OpDec, OpEnumAdd:
		kindErr = requireKind(ir.KEnum, in.A)
	case OpUnion:
		// Union requires two collections of the same associative kind.
		ka, kb := st.kind(in.A), st.kind(in.B)
		if ka == known(ir.KSeq) || kb == known(ir.KSeq) {
			kindErr = v.errf(pc, "union over a sequence register")
		} else if ka != kindUnknown && kb != kindUnknown && ka != kb {
			kindErr = v.errf(pc, "union of %v register %d with %v register %d",
				ir.CollKind(ka-1), in.A, ir.CollKind(kb-1), in.B)
		}
	}
	if kindErr != nil {
		return kindErr
	}

	// Definitions and result kinds.
	resultKind := kindUnknown
	switch in.Op {
	case OpNewColl:
		resultKind = known(v.p.AllocSites[in.Aux].Type.Kind)
	case OpNewEnum, OpEnumGlobal:
		resultKind = known(ir.KEnum)
	case OpEnumAdd:
		resultKind = known(ir.KEnum) // Dst carries the enum handle through
	case OpMove:
		resultKind = st.kind(in.A)
	case OpWriteMap, OpWriteSeq, OpInsertSet, OpInsertMap, OpInsertSeqEnd,
		OpInsertSeqAt, OpRemoveSet, OpRemoveMap, OpRemoveSeq, OpClear, OpUnion:
		// Updates return the base handle of A: same kind as the root.
		resultKind = st.kind(in.A)
	}
	if writesDst(in.Op) {
		st.def(in.Dst, resultKind)
	}
	if in.Op == OpCall && in.Dst >= 0 {
		st.def(in.Dst, kindUnknown)
	}
	if in.Op == OpEnumAdd && in.Dst2 >= 0 {
		st.def(in.Dst2, kindUnknown)
		st.def(in.Dst, known(ir.KEnum))
	}

	// Successors.
	switch in.Op {
	case OpReturn, OpReturnVoid, OpRaise:
	case OpJump:
		v.push(int(in.Aux), st)
	case OpJumpIf, OpJumpIfNot:
		v.push(int(in.Aux), st)
		v.push(pc+1, st)
	case OpForEach:
		// The body sees the key/value bindings; the continuation does
		// not (a zero-element iteration never writes them).
		body.copyFrom(st)
		body.def(in.Dst, kindUnknown)
		body.def(in.Dst2, kindUnknown)
		v.push(int(in.Aux), body)
		v.push(int(in.Aux2), st)
	default:
		v.push(pc+1, st)
	}
	return nil
}
