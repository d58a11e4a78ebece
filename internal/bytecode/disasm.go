package bytecode

import (
	"fmt"
	"strings"

	"memoir/internal/ir"
)

// Disasm renders the program as a deterministic textual listing, used
// by -dump-bytecode and the golden-file tests. The format is stable:
// one instruction per line, registers as r<n>, jump targets as
// absolute pcs, argument lists expanded inline.
func Disasm(p *Prog) string {
	var sb strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		disasmFunc(&sb, p, f)
	}
	return sb.String()
}

func disasmFunc(sb *strings.Builder, p *Prog, f *Func) {
	params := make([]string, len(f.ParamRegs))
	for i, r := range f.ParamRegs {
		params[i] = fmt.Sprintf("r%d", r)
	}
	fmt.Fprintf(sb, "func @%s(%s) slots=%d frame=%d\n",
		f.Name, strings.Join(params, ", "), f.NumSlots, f.FrameLen)
	for i, cv := range f.Consts {
		fmt.Fprintf(sb, "  const r%d = %v\n", f.NumSlots+i, cv)
	}
	for pc := range f.Code {
		fmt.Fprintf(sb, "  %4d  %s\n", pc, disasmInstr(p, f, &f.Code[pc]))
	}
}

func reg(r int32) string {
	if r < 0 {
		return "_"
	}
	return fmt.Sprintf("r%d", r)
}

// hopRoles name a hop's role after its indexed operand.
var hopRoles = [...]string{NestForEach: "", NestStep: " step", NestSeqPos: " step insert="}

func disasmInstr(p *Prog, f *Func, in *Instr) string {
	a := func() string { return reg(in.A) }
	b := func() string { return reg(in.B) }
	cc := func() string { return reg(in.C) }
	d := func() string { return reg(in.Dst) }
	switch in.Op {
	case OpNop:
		return "nop"
	case OpMove:
		return fmt.Sprintf("move %s <- %s", d(), a())
	case OpJump:
		return fmt.Sprintf("jump %d", in.Aux)
	case OpJumpIf:
		return fmt.Sprintf("jump.if %s %d", a(), in.Aux)
	case OpJumpIfNot:
		return fmt.Sprintf("jump.ifnot %s %d", a(), in.Aux)
	case OpNest:
		var idx string
		switch ir.IndexKind(in.Aux) {
		case ir.IdxValue:
			idx = "[" + b() + "]"
		case ir.IdxConst:
			idx = fmt.Sprintf("[%d]", in.Imm)
		case ir.IdxEnd:
			idx = "[end]"
		case ir.IdxField:
			idx = fmt.Sprintf(".%d", in.Imm)
		}
		s := fmt.Sprintf("%s = nest %s%s%s", d(), a(), idx, hopRoles[in.Aux2])
		if in.Aux2 == NestSeqPos {
			s += cc()
		}
		return s
	case OpStep:
		return "step"
	case OpForEach:
		return fmt.Sprintf("foreach %s key=%s val=r%d body=[%d,%d)", a(), d(), in.Dst2, in.Aux, in.Aux2)
	case OpReturn:
		return fmt.Sprintf("ret %s", a())
	case OpReturnVoid:
		return "ret.void"
	case OpCall:
		return fmt.Sprintf("%s = call @%s %s", d(), p.Funcs[in.Aux].Name, argListStr(f, in.Aux2))
	case OpRaise:
		return fmt.Sprintf("raise %q", p.Msgs[in.Aux])
	case OpNewColl:
		site := p.AllocSites[in.Aux]
		s := fmt.Sprintf("%s = newcoll %v site=%d", d(), site.Type, in.Aux)
		if site.IterLocal {
			s += " iterlocal"
		}
		return s
	case OpNewEnum:
		return fmt.Sprintf("%s = newenum", d())
	case OpEnumGlobal:
		return fmt.Sprintf("%s = enumglobal %s", d(), p.Globals[in.Aux])
	case OpReadMap, OpReadSeq:
		return fmt.Sprintf("%s = %s %s %s", d(), in.Op, a(), b())
	case OpHasSet, OpHasMap:
		return fmt.Sprintf("%s = %s %s %s", d(), in.Op, a(), b())
	case OpSize:
		return fmt.Sprintf("%s = size %s", d(), a())
	case OpWriteMap, OpWriteSeq:
		return fmt.Sprintf("%s = %s %s %s %s", d(), in.Op, a(), b(), cc())
	case OpInsertSet, OpInsertMap, OpRemoveSet, OpRemoveMap, OpRemoveSeq, OpUnion:
		return fmt.Sprintf("%s = %s %s %s", d(), in.Op, a(), b())
	case OpInsertSeqEnd:
		return fmt.Sprintf("%s = insert.seq.end %s %s", d(), a(), cc())
	case OpInsertSeqAt:
		return fmt.Sprintf("%s = insert.seq.at %s %s %s", d(), a(), b(), cc())
	case OpClear:
		return fmt.Sprintf("%s = clear %s", d(), a())
	case OpEnc, OpDec:
		return fmt.Sprintf("%s = %s %s %s", d(), in.Op, a(), b())
	case OpEnumAdd:
		return fmt.Sprintf("%s, r%d = addenum %s %s", d(), in.Dst2, a(), b())
	case OpCmpU, OpCmpS, OpCmpF, OpCmpG:
		return fmt.Sprintf("%s = %s.%s %s %s", d(), in.Op, ir.CmpKind(in.Aux), a(), b())
	case OpNot:
		return fmt.Sprintf("%s = not %s", d(), a())
	case OpSelect:
		return fmt.Sprintf("%s = select %s %s %s", d(), a(), b(), cc())
	case OpCastF:
		return fmt.Sprintf("%s = cast.f %s", d(), a())
	case OpCastI:
		return fmt.Sprintf("%s = cast.i %s mask=%#x", d(), a(), in.Imm)
	case OpIdent:
		return fmt.Sprintf("%s = ident %s", d(), a())
	case OpTuple:
		return fmt.Sprintf("%s = tuple %s", d(), argListStr(f, in.Aux))
	case OpField:
		return fmt.Sprintf("%s = field %s .%d", d(), a(), in.Aux)
	case OpEmit:
		return fmt.Sprintf("emit %s", a())
	case OpROI:
		return "roi"
	default:
		// Remaining ops are the uniform scalar binaries and equality
		// comparisons: dst = op a b.
		return fmt.Sprintf("%s = %s %s %s", d(), in.Op, a(), b())
	}
}

func argListStr(f *Func, idx int32) string {
	list := f.ArgLists[idx]
	parts := make([]string, len(list))
	for i, r := range list {
		parts[i] = reg(r)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
