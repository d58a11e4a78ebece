package ir

import (
	"fmt"
	"io"
	"strings"
)

// printer is what the renderer writes to: a strings.Builder for Print,
// or a buffered hash for ProgramHash.
type printer interface {
	io.Writer
	io.StringWriter
}

// Print renders a program in the paper's textual syntax (Figures 1
// and 2). The output round-trips through the parser.
func Print(p *Program) string {
	var sb strings.Builder
	printProgram(&sb, p)
	return sb.String()
}

func printProgram(sb printer, p *Program) {
	for i, name := range p.Order {
		if i > 0 {
			sb.WriteString("\n")
		}
		printFunc(sb, p.Funcs[name])
	}
}

// PrintFunc renders one function.
func PrintFunc(sb *strings.Builder, fn *Func) { printFunc(sb, fn) }

func printFunc(sb printer, fn *Func) {
	fmt.Fprintf(sb, "fn %s @%s(", fn.Ret, fn.Name)
	for i, p := range fn.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%%%s: %s", p.Name, p.Type)
	}
	sb.WriteString("):")
	if fn.Exported {
		sb.WriteString(" exported")
	}
	sb.WriteString("\n")
	printBlock(sb, fn.Body, 1)
}

func indent(sb printer, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func printOperand(o Operand) string {
	if o.Base == nil {
		// A bare scalar path such as `end`.
		s := ""
		for _, ix := range o.Path {
			if ix.Kind == IdxEnd {
				s += "end"
			} else {
				s += ix.String()
			}
		}
		return s
	}
	return o.String()
}

// printArgs writes an instruction's operands, comma-separated.
func printArgs(sb printer, in *Instr) {
	for i, a := range in.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		if a.Base == nil {
			sb.WriteString(printOperand(a))
			continue
		}
		printValue(sb, a.Base)
		for _, ix := range a.Path {
			if ix.Kind == IdxValue {
				sb.WriteString("[")
				printValue(sb, ix.Val)
				sb.WriteString("]")
			} else {
				sb.WriteString(ix.String())
			}
		}
	}
}

// printValue writes v.String(), without building it for the common
// case of an SSA name.
func printValue(sb printer, v *Value) {
	if v == nil || v.Kind == VConst {
		sb.WriteString(v.String())
		return
	}
	sb.WriteString("%")
	sb.WriteString(v.Name)
}

func printDirective(sb printer, d *Directive, depth int) {
	indent(sb, depth)
	sb.WriteString("#pragma ade")
	var emit func(d *Directive)
	emit = func(d *Directive) {
		if d.Enumerate {
			sb.WriteString(" enumerate")
		}
		if d.NoEnumerate {
			sb.WriteString(" noenumerate")
		}
		if d.NoShare {
			sb.WriteString(" noshare")
		}
		for _, w := range d.NoShareWith {
			fmt.Fprintf(sb, " noshare(%s)", w)
		}
		if d.ShareGroup != "" {
			fmt.Fprintf(sb, " share group(%q)", d.ShareGroup)
		}
		if d.Select != 0 {
			fmt.Fprintf(sb, " select(%s)", d.Select)
		}
		if d.Inner != nil {
			sb.WriteString(" inner(")
			emit(d.Inner)
			sb.WriteString(" )")
		}
	}
	emit(d)
	sb.WriteString("\n")
}

func printInstr(sb printer, in *Instr, depth int) {
	if in.Dir != nil {
		printDirective(sb, in.Dir, depth)
	}
	indent(sb, depth)
	switch len(in.Results) {
	case 1:
		printValue(sb, in.Results[0])
		sb.WriteString(" := ")
	case 2:
		sb.WriteString("(")
		printValue(sb, in.Results[0])
		sb.WriteString(", ")
		printValue(sb, in.Results[1])
		sb.WriteString(") := ")
	}
	// args closes a head written with fmt by the parenthesized
	// operands.
	args := func() {
		printArgs(sb, in)
		sb.WriteString(")")
	}
	switch in.Op {
	case OpNew:
		fmt.Fprintf(sb, "new %s()", in.Alloc)
	case OpBin:
		fmt.Fprintf(sb, "%s(", in.Bin)
		args()
	case OpCmp:
		fmt.Fprintf(sb, "%s(", in.Cmp)
		args()
	case OpCast:
		fmt.Fprintf(sb, "cast<%s>(", in.CastTo)
		args()
	case OpField:
		fmt.Fprintf(sb, "field(%s, %d)", printOperand(in.Args[0]), in.FieldIdx)
	case OpCall:
		sb.WriteString("call @" + in.Callee + "(")
		args()
	case OpEncode:
		sb.WriteString("call @enc(")
		args()
	case OpDecode:
		sb.WriteString("call @dec(")
		args()
	case OpEnumAdd:
		sb.WriteString("call @add(")
		args()
	case OpNewEnum:
		sb.WriteString("new Enum()")
	case OpEnumGlobal:
		domain := "u64"
		if ct := AsColl(in.Result().Type); ct != nil && ct.Key != nil {
			domain = ct.Key.String()
		}
		fmt.Fprintf(sb, "enumglobal<%s> @%s", domain, in.Callee)
	case OpRet:
		if len(in.Args) == 0 {
			sb.WriteString("ret")
		} else {
			fmt.Fprintf(sb, "ret %s", printOperand(in.Args[0]))
		}
	case OpPhi:
		sb.WriteString("phi(")
		args()
	default:
		fmt.Fprintf(sb, "%s(", in.Op)
		args()
	}
	sb.WriteString("\n")
}

func printBlock(sb printer, b *Block, depth int) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *Instr:
			printInstr(sb, n, depth)
		case *If:
			indent(sb, depth)
			fmt.Fprintf(sb, "if %s:\n", n.Cond)
			printBlock(sb, n.Then, depth+1)
			if len(n.Else.Nodes) > 0 {
				indent(sb, depth)
				sb.WriteString("else:\n")
				printBlock(sb, n.Else, depth+1)
			}
			for _, p := range n.ExitPhis {
				printInstr(sb, p, depth)
			}
		case *ForEach:
			indent(sb, depth)
			fmt.Fprintf(sb, "for [%s, %s] in %s:\n", n.Key, n.Val, printOperand(n.Coll))
			for _, p := range n.HeaderPhis {
				printInstr(sb, p, depth+1)
			}
			printBlock(sb, n.Body, depth+1)
			for _, p := range n.ExitPhis {
				printInstr(sb, p, depth)
			}
		case *DoWhile:
			indent(sb, depth)
			sb.WriteString("do:\n")
			for _, p := range n.HeaderPhis {
				printInstr(sb, p, depth+1)
			}
			printBlock(sb, n.Body, depth+1)
			indent(sb, depth)
			fmt.Fprintf(sb, "while %s\n", n.Cond)
			for _, p := range n.ExitPhis {
				printInstr(sb, p, depth)
			}
		}
	}
}
