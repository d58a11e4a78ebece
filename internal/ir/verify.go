package ir

import "fmt"

// Verify checks structural and type well-formedness of every function
// in the program: defined-before-use with structured scoping, phi
// placement and arity, operand type agreement for collection ops, and
// return correctness.
func Verify(p *Program) error {
	v := newVerifier(p, false)
	for _, name := range p.Order {
		if err := v.verify(p.Funcs[name]); err != nil {
			return fmt.Errorf("@%s: %w", name, err)
		}
	}
	return nil
}

type verifier struct {
	prog  *Program
	fn    *Func
	scope map[*Value]bool
	// defined lists the values blocks and loops have put in scope,
	// innermost last; each takes its own back out when it ends.
	defined []*Value
	// defsA and defsB are scratch for the definitions of an if's two
	// branches or of a loop body, filled after the walk of the
	// enclosing construct's children is done.
	defsA, defsB map[*Value]bool
	// local suppresses cross-function checks (call argument/parameter
	// type agreement), so a function can be verified mid-pipeline while
	// its callees have not been rewritten yet.
	local bool
}

// VerifyFunc checks a single function.
func VerifyFunc(p *Program, fn *Func) error {
	return verifyFunc(p, fn, false)
}

// VerifyFuncLocal checks a single function but skips cross-function
// type agreement at call sites. ADE's -check mode uses it between the
// per-function transformation steps, where a transformed caller may
// legitimately pass idx-typed arguments to a not-yet-transformed
// callee.
func VerifyFuncLocal(p *Program, fn *Func) error {
	return verifyFunc(p, fn, true)
}

func verifyFunc(p *Program, fn *Func, local bool) error {
	return newVerifier(p, local).verify(fn)
}

func newVerifier(p *Program, local bool) *verifier {
	return &verifier{prog: p, scope: map[*Value]bool{}, local: local,
		defsA: map[*Value]bool{}, defsB: map[*Value]bool{}}
}

// verify checks fn, reusing v's scratch from any earlier function.
func (v *verifier) verify(fn *Func) error {
	v.fn = fn
	clear(v.scope)
	v.defined = v.defined[:0]
	for _, prm := range fn.Params {
		v.scope[prm] = true
	}
	return v.block(fn.Body)
}

// atPos prefixes err with a source line when one is known, so verifier
// failures on parsed programs point at real `.mir` lines.
func atPos(pos int, err error) error {
	if err == nil || pos == 0 {
		return err
	}
	return fmt.Errorf("line %d: %w", pos, err)
}

// firstPos returns the first non-zero position.
func firstPos(ps ...int) int {
	for _, p := range ps {
		if p != 0 {
			return p
		}
	}
	return 0
}

// define puts vals in scope until the enclosing block ends.
func (v *verifier) define(vals ...*Value) {
	for _, x := range vals {
		v.scope[x] = true
		v.defined = append(v.defined, x)
	}
}

// undefine takes the values defined since mark back out of scope.
func (v *verifier) undefine(mark int) {
	for _, x := range v.defined[mark:] {
		delete(v.scope, x)
	}
	v.defined = v.defined[:mark]
}

// block checks b's nodes in order; what b defines is in scope only
// inside it.
func (v *verifier) block(b *Block) error {
	mark := len(v.defined)
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *Instr:
			if n.Op == OpPhi {
				return atPos(n.Pos, fmt.Errorf("free-standing phi %v outside structural position", n.Result()))
			}
			if err := v.instr(n); err != nil {
				return atPos(n.Pos, err)
			}
			v.define(n.Results...)
		case *If:
			if err := v.useValue(n.Cond); err != nil {
				return atPos(n.Pos, err)
			}
			if !IsScalar(n.Cond.Type, Bool) {
				return atPos(n.Pos, fmt.Errorf("if condition %v is not bool", n.Cond))
			}
			if err := v.block(n.Then); err != nil {
				return err
			}
			if err := v.block(n.Else); err != nil {
				return err
			}
			thenDefs := blockDefs(n.Then, v.defsA)
			elseDefs := blockDefs(n.Else, v.defsB)
			for _, p := range n.ExitPhis {
				pp := firstPos(p.Pos, n.Pos)
				if p.PhiRole != PhiIfExit || len(p.Args) != 2 {
					return atPos(pp, fmt.Errorf("if-exit phi %v malformed", p.Result()))
				}
				for i, defs := range []map[*Value]bool{thenDefs, elseDefs} {
					x := p.Args[i].Base
					if x.Kind != VConst && !v.scope[x] && !defs[x] {
						return atPos(pp, fmt.Errorf("if-exit phi %v: operand %v not available from branch %d", p.Result(), x, i))
					}
				}
				if err := v.phiTypes(p); err != nil {
					return atPos(pp, err)
				}
				v.define(p.Results...)
			}
		case *ForEach:
			if err := v.operand(n.Coll); err != nil {
				return atPos(n.Pos, err)
			}
			ct := AsColl(n.Coll.InnerType())
			if ct == nil || ct.Kind == KTuple {
				return atPos(n.Pos, fmt.Errorf("for-each over non-collection %v", n.Coll))
			}
			if err := v.loop(n.Pos, n.HeaderPhis, n.Body, n.ExitPhis, n.Key, n.Val, nil); err != nil {
				return err
			}
		case *DoWhile:
			if err := v.loop(n.Pos, n.HeaderPhis, n.Body, n.ExitPhis, nil, nil, n.Cond); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown node %T", n)
		}
	}
	v.undefine(mark)
	return nil
}

// loop checks a for-each (bindings key and val) or do-while (condition
// cond) loop. Its bindings and header phis are in scope only inside
// it; its exit phis stay in scope until the enclosing block ends.
func (v *verifier) loop(pos int, hdr []*Instr, body *Block, exit []*Instr, key, val, cond *Value) error {
	mark := len(v.defined)
	for _, x := range [2]*Value{key, val} {
		if x != nil {
			v.define(x)
		}
	}
	for _, p := range hdr {
		pp := firstPos(p.Pos, pos)
		if p.Op != OpPhi || p.PhiRole != PhiLoopHeader {
			return atPos(pp, fmt.Errorf("loop header contains non-header-phi"))
		}
		if len(p.Args) != 2 {
			return atPos(pp, fmt.Errorf("header phi %v needs (init, latch), has %d args", p.Result(), len(p.Args)))
		}
		// Init must be in scope now; latch is checked after the body.
		if err := v.operand(p.Args[0]); err != nil {
			return atPos(pp, err)
		}
		if err := v.phiTypes(p); err != nil {
			return atPos(pp, err)
		}
		v.define(p.Result())
	}
	own := len(v.defined)
	if err := v.block(body); err != nil {
		return err
	}
	// Latches and the do-while condition reference values defined in
	// the body, which are now out of scope; re-walk body definitions.
	bodyDefs := v.defsA
	clear(bodyDefs)
	WalkNodes(body, func(n Node) {
		if in, ok := n.(*Instr); ok {
			for _, r := range in.Results {
				bodyDefs[r] = true
			}
		}
	})
	inScopeOrBody := func(x *Value) error {
		if x.Kind == VConst || v.scope[x] || bodyDefs[x] {
			return nil
		}
		return fmt.Errorf("value %v not available at loop latch", x)
	}
	for _, p := range hdr {
		if err := inScopeOrBody(p.Args[1].Base); err != nil {
			return atPos(firstPos(p.Pos, pos), err)
		}
	}
	if cond != nil {
		if err := inScopeOrBody(cond); err != nil {
			return atPos(pos, err)
		}
		if !IsScalar(cond.Type, Bool) {
			return atPos(pos, fmt.Errorf("do-while condition %v is not bool", cond))
		}
	}
	for _, p := range exit {
		pp := firstPos(p.Pos, pos)
		if p.Op != OpPhi || p.PhiRole != PhiLoopExit || len(p.Args) != 1 {
			return atPos(pp, fmt.Errorf("loop-exit phi %v malformed", p.Result()))
		}
		if err := inScopeOrBody(p.Args[0].Base); err != nil {
			return atPos(pp, err)
		}
		if err := v.phiTypes(p); err != nil {
			return atPos(pp, err)
		}
		v.define(p.Results...)
	}
	// Take the loop's own values out of scope, keeping the exit phis
	// defined above for the enclosing block.
	for _, x := range v.defined[mark:own] {
		delete(v.scope, x)
	}
	v.defined = append(v.defined[:mark], v.defined[own:]...)
	return nil
}

// blockDefs fills defs with every value defined anywhere inside b,
// including loop bindings and phis, and returns it.
func blockDefs(b *Block, defs map[*Value]bool) map[*Value]bool {
	clear(defs)
	WalkNodes(b, func(n Node) {
		switch n := n.(type) {
		case *Instr:
			for _, r := range n.Results {
				defs[r] = true
			}
		case *ForEach:
			defs[n.Key] = true
			defs[n.Val] = true
		}
	})
	return defs
}

func (v *verifier) phiTypes(p *Instr) error {
	rt := p.Result().Type
	for _, a := range p.Args {
		if a.Base != nil && !TypesEqual(a.Base.Type, rt) {
			return fmt.Errorf("phi %v: operand %v type %v != result type %v", p.Result(), a.Base, a.Base.Type, rt)
		}
	}
	return nil
}

func (v *verifier) useValue(x *Value) error {
	if x == nil {
		return fmt.Errorf("nil value use")
	}
	if x.Kind == VConst || v.scope[x] {
		return nil
	}
	return fmt.Errorf("use of %v before definition (or out of scope)", x)
}

func (v *verifier) operand(o Operand) error {
	if o.Base != nil {
		if err := v.useValue(o.Base); err != nil {
			return err
		}
	}
	for _, ix := range o.Path {
		if ix.Kind == IdxValue {
			if err := v.useValue(ix.Val); err != nil {
				return err
			}
		}
	}
	return nil
}

func (v *verifier) instr(in *Instr) error {
	for _, a := range in.Args {
		if err := v.operand(a); err != nil {
			return fmt.Errorf("%v: %w", in.Op, err)
		}
	}
	collArg := func(i int) (*CollType, error) {
		ct := AsColl(in.Args[i].InnerType())
		if ct == nil {
			return nil, fmt.Errorf("%v: operand %v is not a collection", in.Op, in.Args[i])
		}
		return ct, nil
	}
	keyMatches := func(ct *CollType, k Type) bool {
		return TypesEqual(ct.Key, k)
	}
	switch in.Op {
	case OpNew:
		if in.Alloc == nil {
			return fmt.Errorf("new without allocation type")
		}
	case OpRead:
		ct, err := collArg(0)
		if err != nil {
			return err
		}
		switch ct.Kind {
		case KMap:
			if !keyMatches(ct, in.Args[1].Base.Type) {
				return fmt.Errorf("read key type %v != map key %v", in.Args[1].Base.Type, ct.Key)
			}
		case KSeq:
		default:
			return fmt.Errorf("read on %v", ct)
		}
	case OpHas, OpRemove:
		ct, err := collArg(0)
		if err != nil {
			return err
		}
		if !ct.Assoc() {
			return fmt.Errorf("%v on %v", in.Op, ct)
		}
		if !keyMatches(ct, in.Args[1].Base.Type) {
			return fmt.Errorf("%v key type %v != %v", in.Op, in.Args[1].Base.Type, ct.Key)
		}
	case OpWrite:
		ct, err := collArg(0)
		if err != nil {
			return err
		}
		switch ct.Kind {
		case KMap:
			if !keyMatches(ct, in.Args[1].Base.Type) {
				return fmt.Errorf("write key type %v != map key %v", in.Args[1].Base.Type, ct.Key)
			}
			if !TypesEqual(ct.Elem, in.Args[2].Base.Type) {
				return fmt.Errorf("write value type %v != map value %v", in.Args[2].Base.Type, ct.Elem)
			}
		case KSeq:
			if !TypesEqual(ct.Elem, in.Args[2].Base.Type) {
				return fmt.Errorf("write value type %v != seq elem %v", in.Args[2].Base.Type, ct.Elem)
			}
		default:
			return fmt.Errorf("write on %v", ct)
		}
	case OpInsert:
		ct, err := collArg(0)
		if err != nil {
			return err
		}
		switch ct.Kind {
		case KSet, KMap:
			if !keyMatches(ct, in.Args[1].Base.Type) {
				return fmt.Errorf("insert key type %v != %v", in.Args[1].Base.Type, ct.Key)
			}
		case KSeq:
			if len(in.Args) != 3 {
				return fmt.Errorf("seq insert needs (seq, pos, value)")
			}
			if !TypesEqual(ct.Elem, in.Args[2].Base.Type) {
				return fmt.Errorf("seq insert value type %v != %v", in.Args[2].Base.Type, ct.Elem)
			}
		}
	case OpUnion:
		a, err := collArg(0)
		if err != nil {
			return err
		}
		b, err := collArg(1)
		if err != nil {
			return err
		}
		if a.Kind != KSet || b.Kind != KSet || !TypesEqual(a.Key, b.Key) {
			return fmt.Errorf("union over mismatched sets %v / %v", a, b)
		}
	case OpRet:
		if IsScalar(v.fn.Ret, Void) {
			if len(in.Args) != 0 {
				return fmt.Errorf("void function returns a value")
			}
		} else {
			if len(in.Args) != 1 || !TypesEqual(in.Args[0].Base.Type, v.fn.Ret) {
				return fmt.Errorf("return type mismatch")
			}
		}
	case OpCall:
		callee := v.prog.Func(in.Callee)
		if callee == nil {
			return fmt.Errorf("call to unknown @%s", in.Callee)
		}
		if len(in.Args) != len(callee.Params) {
			return fmt.Errorf("call @%s: %d args, want %d", in.Callee, len(in.Args), len(callee.Params))
		}
		if !v.local {
			for i, a := range in.Args {
				at := a.InnerType()
				if !TypesEqual(at, callee.Params[i].Type) {
					return fmt.Errorf("call @%s arg %d type %v != param %v", in.Callee, i, at, callee.Params[i].Type)
				}
			}
		}
	case OpCmp, OpBin:
		if len(in.Args) != 2 {
			return fmt.Errorf("%v needs 2 args", in.Op)
		}
		if !TypesEqual(in.Args[0].Base.Type, in.Args[1].Base.Type) {
			return fmt.Errorf("%v operand types differ: %v vs %v", in.Op, in.Args[0].Base.Type, in.Args[1].Base.Type)
		}
	case OpEncode:
		// enc(enum, value) -> idx
		if len(in.Args) != 2 {
			return fmt.Errorf("enc arity")
		}
	case OpDecode:
		if len(in.Args) != 2 || !IsScalar(in.Args[1].Base.Type, Idx) {
			return fmt.Errorf("dec needs (enum, idx)")
		}
	case OpEnumAdd:
		if len(in.Args) != 2 || len(in.Results) != 2 {
			return fmt.Errorf("add needs (enum, value) -> (enum, idx)")
		}
	case OpTuple:
		ct := AsColl(in.Result().Type)
		if ct == nil || ct.Kind != KTuple || len(ct.Flds) != len(in.Args) {
			return fmt.Errorf("tuple result type mismatch")
		}
		for i, a := range in.Args {
			if !TypesEqual(a.InnerType(), ct.Flds[i]) {
				return fmt.Errorf("tuple field %d type mismatch", i)
			}
		}
	case OpField:
		ct := AsColl(in.Args[0].InnerType())
		if ct == nil || ct.Kind != KTuple {
			return fmt.Errorf("field on non-tuple")
		}
		if in.FieldIdx < 0 || in.FieldIdx >= len(ct.Flds) {
			return fmt.Errorf("field index %d out of range", in.FieldIdx)
		}
		if !TypesEqual(in.Result().Type, ct.Flds[in.FieldIdx]) {
			return fmt.Errorf("field result type mismatch")
		}
	}
	return nil
}
