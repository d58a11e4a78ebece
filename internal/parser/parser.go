package parser

import (
	"fmt"
	"strconv"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Parse reads a textual MEMOIR program. This is the compiler's only
// untrusted-input surface, so malformed input always comes back as a
// positioned error, never a panic: the grammar code reports errors
// directly, and a recover converts any internal invariant a malformed
// program still manages to violate into a positioned error as a last
// line of defense.
func Parse(src string) (prog *ir.Program, err error) {
	lines, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{lines: lines, prog: ir.NewProgram(), sigs: map[string]ir.Type{}}
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("line %d: malformed input: %v", p.curLine(), r)
		}
	}()
	// Pre-scan function signatures so calls can be typed in any order.
	for _, l := range lines {
		if l.indent == 0 && len(l.toks) > 0 && l.toks[0].kind == tIdent && l.toks[0].text == "fn" {
			c := &cursor{toks: l.toks, line: l.num}
			c.next() // fn
			ret, err := p.parseType(c)
			if err != nil {
				return nil, err
			}
			name, err := c.expectKind(tAt)
			if err != nil {
				return nil, err
			}
			p.sigs[name] = ret
		}
	}
	for p.pos < len(p.lines) {
		if err := p.parseFunc(); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// MustParse parses or panics. It is for trusted, known-good sources
// only (tests and examples); external input goes through Parse.
func MustParse(src string) *ir.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lines []line
	pos   int
	prog  *ir.Program
	sigs  map[string]ir.Type

	fn      *ir.Func
	vals    map[string]*ir.Value
	defined map[string]bool
	pending *ir.Directive

	args []ir.Operand // parseArgs scratch
}

func (p *parser) peek() *line {
	if p.pos >= len(p.lines) {
		return nil
	}
	return &p.lines[p.pos]
}

func (p *parser) next() *line {
	l := p.peek()
	p.pos++
	return l
}

// curLine is the source line the parser most recently consumed — the
// line a recovered panic should be attributed to.
func (p *parser) curLine() int {
	if p.pos > 0 && p.pos <= len(p.lines) {
		return p.lines[p.pos-1].num
	}
	if l := p.peek(); l != nil {
		return l.num
	}
	return 0
}

func (p *parser) errf(l *line, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", l.num, fmt.Sprintf(format, args...))
}

// cursor walks one line's tokens.
type cursor struct {
	toks []token
	i    int
	line int
}

func (c *cursor) peek() token {
	if c.i >= len(c.toks) {
		return token{kind: tEOF}
	}
	return c.toks[c.i]
}

func (c *cursor) next() token {
	t := c.peek()
	c.i++
	return t
}

func (c *cursor) at(text string) bool {
	t := c.peek()
	return (t.kind == tPunct || t.kind == tIdent) && t.text == text
}

func (c *cursor) accept(text string) bool {
	if c.at(text) {
		c.i++
		return true
	}
	return false
}

func (c *cursor) expect(text string) error {
	if !c.accept(text) {
		return fmt.Errorf("line %d: expected %q, got %q", c.line, text, c.peek().text)
	}
	return nil
}

func (c *cursor) expectKind(k tokKind) (string, error) {
	t := c.peek()
	if t.kind != k {
		return "", fmt.Errorf("line %d: unexpected token %q", c.line, t.text)
	}
	c.i++
	return t.text, nil
}

// --- types ---

func (p *parser) parseType(c *cursor) (ir.Type, error) {
	name, err := c.expectKind(tIdent)
	if err != nil {
		return nil, err
	}
	if st, ok := ir.ScalarByName(name); ok {
		return st, nil
	}
	var kind ir.CollKind
	switch name {
	case "Seq":
		kind = ir.KSeq
	case "Set":
		kind = ir.KSet
	case "Map":
		kind = ir.KMap
	case "Tuple":
		kind = ir.KTuple
	case "Enum":
		kind = ir.KEnum
	default:
		return nil, fmt.Errorf("line %d: unknown type %q", c.line, name)
	}
	ct := &ir.CollType{Kind: kind}
	if c.accept("{") {
		sel, err := c.expectKind(tIdent)
		if err != nil {
			return nil, err
		}
		impl, ok := collections.ParseImpl(sel)
		if !ok {
			return nil, fmt.Errorf("line %d: unknown selection %q", c.line, sel)
		}
		ct.Sel = impl
		if err := c.expect("}"); err != nil {
			return nil, err
		}
	}
	if kind == ir.KEnum && !c.at("<") {
		ct.Key = ir.TU64
		return ct, nil
	}
	if err := c.expect("<"); err != nil {
		return nil, err
	}
	var args []ir.Type
	for {
		t, err := p.parseType(c)
		if err != nil {
			return nil, err
		}
		args = append(args, t)
		if !c.accept(",") {
			break
		}
	}
	if err := c.expect(">"); err != nil {
		return nil, err
	}
	switch kind {
	case ir.KSeq:
		ct.Elem = args[0]
	case ir.KSet, ir.KEnum:
		ct.Key = args[0]
	case ir.KMap:
		if len(args) != 2 {
			return nil, fmt.Errorf("line %d: Map needs <key,value>", c.line)
		}
		ct.Key, ct.Elem = args[0], args[1]
	case ir.KTuple:
		ct.Flds = args
	}
	return ct, nil
}

// --- values and operands ---

func (p *parser) value(name string) *ir.Value {
	if v, ok := p.vals[name]; ok {
		return v
	}
	v := &ir.Value{Name: name, Kind: ir.VResult}
	p.vals[name] = v
	return v
}

func (p *parser) define(name string, v *ir.Value) {
	p.vals[name] = v
	p.defined[name] = true
}

// defineResult binds an existing placeholder (or creates the value) as
// the instruction's next result.
func (p *parser) defineResult(name string, in *ir.Instr, t ir.Type) *ir.Value {
	v := p.value(name)
	v.Kind = ir.VResult
	v.Def = in
	v.ResIdx = len(in.Results)
	v.Type = t
	in.Results = append(in.Results, v)
	p.defined[name] = true
	return v
}

func (p *parser) parseConst(c *cursor) (*ir.Value, bool, error) {
	t := c.peek()
	switch t.kind {
	case tInt:
		c.i++
		if t.text[0] == '-' {
			x, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return nil, false, fmt.Errorf("line %d: bad integer %q", c.line, t.text)
			}
			return ir.ConstInt(ir.TI64, uint64(x)), true, nil
		}
		x, err := strconv.ParseUint(t.text, 10, 64)
		if err != nil {
			return nil, false, fmt.Errorf("line %d: bad integer %q", c.line, t.text)
		}
		return ir.ConstInt(ir.TU64, x), true, nil
	case tFloat:
		c.i++
		x, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, false, fmt.Errorf("line %d: bad float %q", c.line, t.text)
		}
		return ir.ConstFloat(ir.TF64, x), true, nil
	case tString:
		c.i++
		return ir.ConstString(t.text), true, nil
	case tIdent:
		switch t.text {
		case "true":
			c.i++
			return ir.ConstBool(true), true, nil
		case "false":
			c.i++
			return ir.ConstBool(false), true, nil
		}
	}
	return nil, false, nil
}

// parseOperand reads value/const with an optional [index] path, or the
// bare `end` marker.
func (p *parser) parseOperand(c *cursor) (ir.Operand, error) {
	var o ir.Operand
	t := c.peek()
	switch {
	case t.kind == tValue:
		c.i++
		o.Base = p.value(t.text)
	case t.kind == tIdent && t.text == "end":
		c.i++
		o.Path = append(o.Path, ir.Index{Kind: ir.IdxEnd})
		return o, nil
	default:
		cv, ok, err := p.parseConst(c)
		if err != nil {
			return o, err
		}
		if !ok {
			return o, fmt.Errorf("line %d: expected operand, got %q", c.line, t.text)
		}
		o.Base = cv
	}
	for c.accept("[") {
		it := c.peek()
		switch {
		case it.kind == tValue:
			c.i++
			o.Path = append(o.Path, ir.Index{Kind: ir.IdxValue, Val: p.value(it.text)})
		case it.kind == tInt:
			c.i++
			n, _ := strconv.ParseUint(it.text, 10, 64)
			o.Path = append(o.Path, ir.Index{Kind: ir.IdxConst, Num: n})
		case it.kind == tIdent && it.text == "end":
			c.i++
			o.Path = append(o.Path, ir.Index{Kind: ir.IdxEnd})
		default:
			return o, fmt.Errorf("line %d: bad index %q", c.line, it.text)
		}
		if err := c.expect("]"); err != nil {
			return o, err
		}
	}
	return o, nil
}

func (p *parser) parseArgs(c *cursor) ([]ir.Operand, error) {
	if err := c.expect("("); err != nil {
		return nil, err
	}
	// Operands collect in the parser's scratch and are copied out at
	// their final length.
	p.args = p.args[:0]
	if !c.at(")") {
		for {
			o, err := p.parseOperand(c)
			if err != nil {
				return nil, err
			}
			p.args = append(p.args, o)
			if !c.accept(",") {
				break
			}
		}
	}
	var args []ir.Operand
	if len(p.args) > 0 {
		args = append([]ir.Operand(nil), p.args...)
	}
	return args, c.expect(")")
}
