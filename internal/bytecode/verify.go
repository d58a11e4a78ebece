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
// segment, index a missing constant pool/path/arg-list/function-table
// entry, or run a kind-specialized collection opcode against a
// register statically known to hold a different kind.
func Verify(p *Prog) error {
	for _, f := range p.Funcs {
		if err := VerifyFunc(p, f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunc checks a single compiled function against its program
// context (function table, allocation sites, globals, messages).
func VerifyFunc(p *Prog, f *Func) error {
	v := &verifier{p: p, f: f}
	if err := v.structure(); err != nil {
		return err
	}
	return v.dataflow()
}

type verifier struct {
	p *Prog
	f *Func
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
// for the opcode.
func reads(op Op) (a, b, c bool) {
	switch op {
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
	case OpMove, OpNewColl, OpNewEnum, OpEnumGlobal,
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

func (v *verifier) checkOperand(pc int, what string, o Operand) error {
	if err := v.checkReg(pc, what, o.Reg); err != nil {
		return err
	}
	if o.Path < 0 {
		return nil
	}
	if int(o.Path) >= len(v.f.Paths) {
		return v.errf(pc, "%s path %d outside path table [0,%d)", what, o.Path, len(v.f.Paths))
	}
	for _, st := range v.f.Paths[o.Path] {
		if st.Kind == ir.IdxValue {
			if err := v.checkReg(pc, what+" path index", st.Reg); err != nil {
				return err
			}
		}
	}
	return nil
}

func (v *verifier) checkArgList(pc int, idx int32) error {
	if idx < 0 || int(idx) >= len(v.f.ArgLists) {
		return v.errf(pc, "argument list %d outside table [0,%d)", idx, len(v.f.ArgLists))
	}
	for i, o := range v.f.ArgLists[idx] {
		if err := v.checkOperand(pc, fmt.Sprintf("argument %d", i), o); err != nil {
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
		ra, rb, rc := reads(in.Op)
		if ra {
			if err := v.checkOperand(pc, "A", in.A); err != nil {
				return err
			}
		}
		if rb {
			if err := v.checkOperand(pc, "B", in.B); err != nil {
				return err
			}
		}
		if rc {
			if err := v.checkOperand(pc, "C", in.C); err != nil {
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
// holds.
type flowState struct {
	init  []uint64
	kinds []regKind
}

func newFlowState(frame int) *flowState {
	return &flowState{init: make([]uint64, (frame+63)/64), kinds: make([]regKind, frame)}
}

func (s *flowState) clone() *flowState {
	c := &flowState{init: make([]uint64, len(s.init)), kinds: make([]regKind, len(s.kinds))}
	copy(c.init, s.init)
	copy(c.kinds, s.kinds)
	return c
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

func (v *verifier) dataflow() error {
	f := v.f
	entry := newFlowState(f.FrameLen)
	for _, r := range f.ParamRegs {
		entry.mark(r)
	}
	for i := range f.Consts {
		entry.mark(int32(f.NumSlots + i))
	}

	in := make([]*flowState, len(f.Code))
	in[0] = entry
	work := []int{0}
	queued := make([]bool, len(f.Code))
	queued[0] = true

	push := func(pc int, out *flowState) {
		if pc < 0 || pc >= len(f.Code) {
			return
		}
		if in[pc] == nil {
			in[pc] = out.clone()
		} else if !in[pc].meet(out) {
			return
		}
		if !queued[pc] {
			work = append(work, pc)
			queued[pc] = true
		}
	}

	for len(work) > 0 {
		pc := work[0]
		work = work[1:]
		queued[pc] = false
		st := in[pc].clone()
		next, err := v.transfer(pc, st)
		if err != nil {
			return err
		}
		for _, e := range next {
			push(e.pc, e.st)
		}
	}
	return nil
}

type flowEdge struct {
	pc int
	st *flowState
}

// transfer checks the instruction at pc against st and returns the
// successor edges with their post-states.
func (v *verifier) transfer(pc int, st *flowState) ([]flowEdge, error) {
	f := v.f
	in := &f.Code[pc]

	useOperand := func(what string, o Operand) error {
		if !st.has(o.Reg) {
			return v.errf(pc, "%s reads register %d before it is written", what, o.Reg)
		}
		if o.Path >= 0 {
			for _, ps := range f.Paths[o.Path] {
				if ps.Kind == ir.IdxValue && !st.has(ps.Reg) {
					return v.errf(pc, "%s path reads register %d before it is written", what, ps.Reg)
				}
			}
		}
		return nil
	}
	ra, rb, rc := reads(in.Op)
	if ra {
		if err := useOperand("A", in.A); err != nil {
			return nil, err
		}
	}
	if rb {
		if err := useOperand("B", in.B); err != nil {
			return nil, err
		}
	}
	if rc {
		if err := useOperand("C", in.C); err != nil {
			return nil, err
		}
	}

	// Collection-kind agreement on the root register of A (nested path
	// targets are dynamically typed).
	requireKind := func(want ir.CollKind, o Operand) error {
		if o.Path >= 0 {
			return nil
		}
		if k := st.kind(o.Reg); k != kindUnknown && k != known(want) {
			return v.errf(pc, "operates on %v but register %d holds %v",
				want, o.Reg, ir.CollKind(k-1))
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
		if in.A.Path < 0 && in.B.Path < 0 {
			ka, kb := st.kind(in.A.Reg), st.kind(in.B.Reg)
			if ka == known(ir.KSeq) || kb == known(ir.KSeq) {
				kindErr = v.errf(pc, "union over a sequence register")
			} else if ka != kindUnknown && kb != kindUnknown && ka != kb {
				kindErr = v.errf(pc, "union of %v register %d with %v register %d",
					ir.CollKind(ka-1), in.A.Reg, ir.CollKind(kb-1), in.B.Reg)
			}
		}
	}
	if kindErr != nil {
		return nil, kindErr
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
		if in.A.Path < 0 {
			resultKind = st.kind(in.A.Reg)
		}
	case OpWriteMap, OpWriteSeq, OpInsertSet, OpInsertMap, OpInsertSeqEnd,
		OpInsertSeqAt, OpRemoveSet, OpRemoveMap, OpRemoveSeq, OpClear, OpUnion:
		// Updates return the base handle of A: same kind as the root.
		resultKind = st.kind(in.A.Reg)
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
		return nil, nil
	case OpJump:
		return []flowEdge{{int(in.Aux), st}}, nil
	case OpJumpIf, OpJumpIfNot:
		return []flowEdge{{int(in.Aux), st}, {pc + 1, st.clone()}}, nil
	case OpForEach:
		// The body sees the key/value bindings; the continuation does
		// not (a zero-element iteration never writes them).
		body := st.clone()
		body.def(in.Dst, kindUnknown)
		body.def(in.Dst2, kindUnknown)
		return []flowEdge{{int(in.Aux), body}, {int(in.Aux2), st}}, nil
	default:
		return []flowEdge{{pc + 1, st}}, nil
	}
}
