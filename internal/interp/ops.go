package interp

import (
	"math"

	"memoir/internal/collections"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

func (ip *Interp) execInstr(fn *ir.Func, fr []Val, in *ir.Instr) (ctrl, Val, error) {
	ip.Stats.Steps++
	if ip.Limited {
		if err := ip.interrupted(fn); err != nil {
			return ctrlNormal, Val{}, err
		}
	}
	setRes := func(i int, v Val) {
		// A bare statement binds no SSA value; the result is computed
		// (runtime faults must still fire) and discarded.
		if i >= len(in.Results) {
			return
		}
		fr[in.Results[i].Slot] = v
	}
	switch in.Op {
	case ir.OpNew:
		var c Coll
		if slot := ip.iterLocal[in]; slot != nil {
			c = ip.NewLocalColl(in.Alloc, slot)
		} else {
			c = ip.NewColl(in.Alloc)
		}
		if ip.Tele != nil {
			ip.Tele.TrackColl(c, ip.allocKey(fn, in))
		}
		setRes(0, CollV(c))

	case ir.OpNewEnum:
		setRes(0, EnumV(ip.NewEnum(in.EnumKey(), "")))

	case ir.OpEnumGlobal:
		setRes(0, EnumV(ip.global(in)))

	case ir.OpRead:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		key, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		switch c := cv.Coll().(type) {
		case RMap:
			ip.Stats.Count(c.Impl(), OKRead, 1)
			ip.CollOp(c, OKRead, 1)
			v, ok := c.Get(key)
			if !ok {
				return ctrlNormal, Val{}, ip.errf(fn, "read of missing key %v", key)
			}
			setRes(0, v)
		case *RSeqArr:
			i := int(key.I)
			if i < 0 || i >= c.Len() {
				return ctrlNormal, Val{}, ip.errf(fn, "seq read index %d out of range [0,%d)", i, c.Len())
			}
			ip.Stats.Count(c.Impl(), OKRead, 1)
			ip.CollOp(c, OKRead, 1)
			setRes(0, c.Get(i))
		default:
			return ctrlNormal, Val{}, ip.errf(fn, "read on set")
		}

	case ir.OpHas:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		key, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		switch c := cv.Coll().(type) {
		case RSet:
			ip.Stats.Count(c.Impl(), OKHas, 1)
			ip.CollOp(c, OKHas, 1)
			setRes(0, BoolV(c.Has(key)))
		case RMap:
			ip.Stats.Count(c.Impl(), OKHas, 1)
			ip.CollOp(c, OKHas, 1)
			setRes(0, BoolV(c.HasKey(key)))
		default:
			return ctrlNormal, Val{}, ip.errf(fn, "has on seq")
		}

	case ir.OpSize:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		ip.Stats.Count(cv.Coll().Impl(), OKSize, 1)
		ip.CollOp(cv.Coll(), OKSize, 1)
		setRes(0, IntV(uint64(cv.Coll().Len())))

	case ir.OpWrite:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		key, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		val, err := ip.resolve(fn, fr, in.Args[2])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		switch c := cv.Coll().(type) {
		case RMap:
			// The paper's write contract: the key must already be
			// present (otherwise the key would need ToAdd rather than
			// ToEnc patching).
			ip.Stats.Count(c.Impl(), OKWrite, 1)
			if !c.HasKey(key) {
				return ctrlNormal, Val{}, ip.errf(fn, "write to missing key %v (insert first)", key)
			}
			c.Put(key, val)
			ip.CollOp(c, OKWrite, 1)
		case *RSeqArr:
			i := int(key.I)
			if i < 0 || i >= c.Len() {
				return ctrlNormal, Val{}, ip.errf(fn, "seq write index %d out of range", i)
			}
			ip.Stats.Count(c.Impl(), OKWrite, 1)
			c.Set(i, val)
			ip.CollOp(c, OKWrite, 1)
		default:
			return ctrlNormal, Val{}, ip.errf(fn, "write on set")
		}
		ip.Grew()
		setRes(0, ip.eval(fr, in.Args[0].Base))

	case ir.OpInsert:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		switch c := cv.Coll().(type) {
		case RSet:
			key, err := ip.resolve(fn, fr, in.Args[1])
			if err != nil {
				return ctrlNormal, Val{}, err
			}
			ip.Stats.Count(c.Impl(), OKInsert, 1)
			c.Insert(key)
			ip.CollOp(c, OKInsert, 1)
			if ip.Tele != nil {
				ip.Tele.KeyObs(c, key.Bits())
			}
		case RMap:
			key, err := ip.resolve(fn, fr, in.Args[1])
			if err != nil {
				return ctrlNormal, Val{}, err
			}
			ip.Stats.Count(c.Impl(), OKInsert, 1)
			if !c.HasKey(key) {
				zv := ip.zeroVal(c.ElemType())
				if ip.Tele != nil {
					ip.Tele.TrackInner(zv.Ref(), c)
				}
				c.Put(key, zv)
			}
			ip.CollOp(c, OKInsert, 1)
			if ip.Tele != nil {
				ip.Tele.KeyObs(c, key.Bits())
			}
		case *RSeqArr:
			val, err := ip.resolve(fn, fr, in.Args[2])
			if err != nil {
				return ctrlNormal, Val{}, err
			}
			ip.Stats.Count(c.Impl(), OKInsert, 1)
			ip.CollOp(c, OKInsert, 1)
			pos := in.Args[1]
			if pos.Base == nil && len(pos.Path) == 1 && pos.Path[0].Kind == ir.IdxEnd {
				c.Append(val)
			} else {
				pv, err := ip.resolve(fn, fr, pos)
				if err != nil {
					return ctrlNormal, Val{}, err
				}
				i := int(pv.I)
				if i < 0 || i > c.Len() {
					return ctrlNormal, Val{}, ip.errf(fn, "seq insert index %d out of range", i)
				}
				c.InsertAt(i, val)
			}
		}
		ip.Grew()
		setRes(0, ip.eval(fr, in.Args[0].Base))

	case ir.OpRemove:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		key, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		switch c := cv.Coll().(type) {
		case RSet:
			ip.Stats.Count(c.Impl(), OKRemove, 1)
			c.Remove(key)
			ip.CollOp(c, OKRemove, 1)
		case RMap:
			ip.Stats.Count(c.Impl(), OKRemove, 1)
			c.Remove(key)
			ip.CollOp(c, OKRemove, 1)
		case *RSeqArr:
			i := int(key.I)
			if i < 0 || i >= c.Len() {
				return ctrlNormal, Val{}, ip.errf(fn, "seq remove index %d out of range", i)
			}
			ip.Stats.Count(c.Impl(), OKRemove, 1)
			c.RemoveAt(i)
			ip.CollOp(c, OKRemove, 1)
		}
		setRes(0, ip.eval(fr, in.Args[0].Base))

	case ir.OpClear:
		cv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		ip.Stats.Count(cv.Coll().Impl(), OKClear, 1)
		cv.Coll().Clear()
		ip.CollOp(cv.Coll(), OKClear, 1)
		setRes(0, ip.eval(fr, in.Args[0].Base))

	case ir.OpUnion:
		if err := ip.execUnion(fn, fr, in); err != nil {
			return ctrlNormal, Val{}, err
		}
		setRes(0, ip.eval(fr, in.Args[0].Base))

	case ir.OpEncode:
		e := ip.eval(fr, in.Args[0].Base)
		v, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		ip.Stats.Count(ImplEnum, OKEnc, 1)
		if ip.Tele != nil {
			ip.Tele.EnumOp(e.Enum(), telemetry.OpEnc, false)
		}
		id, ok := e.Enum().Enc(v)
		if !ok {
			// Behaviour for values outside the enumeration is undefined
			// in the paper (§III-B); we return the never-issued sentinel
			// identifier so membership tests on the enumerated
			// collection correctly come back false (Listing 2 encodes
			// the key before testing `has`).
			setRes(0, IntV(uint64(AbsentID)))
			break
		}
		setRes(0, IntV(uint64(id)))

	case ir.OpDecode:
		e := ip.eval(fr, in.Args[0].Base)
		idv, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		ip.Stats.Count(ImplEnum, OKDec, 1)
		if ip.Tele != nil {
			ip.Tele.EnumOp(e.Enum(), telemetry.OpDec, false)
		}
		if int(idv.I) >= e.Enum().Len() {
			return ctrlNormal, Val{}, ip.errf(fn, "dec of identifier %d outside [0,%d)", idv.I, e.Enum().Len())
		}
		setRes(0, e.Enum().Dec(uint32(idv.I)))

	case ir.OpEnumAdd:
		e := ip.eval(fr, in.Args[0].Base)
		v, err := ip.resolve(fn, fr, in.Args[1])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		ip.Stats.Count(ImplEnum, OKAdd, 1)
		id, added := e.Enum().Add(v)
		if ip.Tele != nil {
			ip.Tele.EnumOp(e.Enum(), telemetry.OpAdd, added)
		}
		if added {
			ip.Grew()
		}
		if fa := ip.Opts.Faults; fa != nil && fa.CorruptAdd() {
			e.Enum().CorruptSlot()
		}
		setRes(0, e)
		setRes(1, IntV(uint64(id)))

	case ir.OpBin:
		x := ip.eval(fr, in.Args[0].Base)
		y := ip.eval(fr, in.Args[1].Base)
		ip.Stats.Count(collections.ImplNone, OKScalar, 1)
		v, err := ip.binOp(fn, in, x, y)
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		setRes(0, v)

	case ir.OpCmp:
		x := ip.eval(fr, in.Args[0].Base)
		y := ip.eval(fr, in.Args[1].Base)
		ip.Stats.Count(collections.ImplNone, OKScalar, 1)
		setRes(0, BoolV(ip.cmpOp(in, x, y)))

	case ir.OpNot:
		x := ip.eval(fr, in.Args[0].Base)
		setRes(0, BoolV(!x.Bool()))

	case ir.OpSelect:
		cond := ip.eval(fr, in.Args[0].Base)
		if cond.Bool() {
			setRes(0, ip.eval(fr, in.Args[1].Base))
		} else {
			setRes(0, ip.eval(fr, in.Args[2].Base))
		}

	case ir.OpCast:
		x := ip.eval(fr, in.Args[0].Base)
		setRes(0, CastVal(x, in.CastTo))

	case ir.OpTuple:
		fields := make([]Val, len(in.Args))
		for i, a := range in.Args {
			v, err := ip.resolve(fn, fr, a)
			if err != nil {
				return ctrlNormal, Val{}, err
			}
			fields[i] = v
		}
		setRes(0, TupleV(fields))

	case ir.OpField:
		tv, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		fields := tv.Tuple()
		if in.FieldIdx >= len(fields) {
			return ctrlNormal, Val{}, ip.errf(fn, "field %d of %d-tuple", in.FieldIdx, len(fields))
		}
		setRes(0, fields[in.FieldIdx])

	case ir.OpEmit:
		v, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		ip.Emit(v)

	case ir.OpROI:
		ip.MarkROI()

	case ir.OpRet:
		if len(in.Args) == 0 {
			return ctrlReturn, Val{}, nil
		}
		v, err := ip.resolve(fn, fr, in.Args[0])
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		return ctrlReturn, v, nil

	case ir.OpCall:
		callee := ip.Prog.Func(in.Callee)
		if callee == nil {
			return ctrlNormal, Val{}, ip.errf(fn, "call to unknown @%s", in.Callee)
		}
		args := make([]Val, len(in.Args))
		for i, a := range in.Args {
			v, err := ip.resolve(fn, fr, a)
			if err != nil {
				return ctrlNormal, Val{}, err
			}
			args[i] = v
		}
		ret, err := ip.call(callee, args)
		if err != nil {
			return ctrlNormal, Val{}, err
		}
		if len(in.Results) > 0 {
			setRes(0, ret)
		}

	case ir.OpPhi:
		return ctrlNormal, Val{}, ip.errf(fn, "phi executed outside structural position")

	default:
		return ctrlNormal, Val{}, ip.errf(fn, "unimplemented op %v", in.Op)
	}
	return ctrlNormal, Val{}, nil
}

// execUnion merges src into dst with implementation-specific fast
// paths, accounting the work proportionally (Table III's union row).
func (ip *Interp) execUnion(fn *ir.Func, fr []Val, in *ir.Instr) error {
	dv, err := ip.resolve(fn, fr, in.Args[0])
	if err != nil {
		return err
	}
	sv, err := ip.resolve(fn, fr, in.Args[1])
	if err != nil {
		return err
	}
	dst, ok1 := dv.Coll().(RSet)
	src, ok2 := sv.Coll().(RSet)
	if !ok1 || !ok2 {
		return ip.errf(fn, "union on non-sets")
	}
	defer ip.Grew()
	UnionInto(ip.Stats, ip.Tele, dst, src)
	return nil
}

// UnionInto merges src into dst with implementation-specific fast
// paths, accounting the work proportionally into st (Table III's
// union row). Shared by both execution engines so the OKUnionWord
// counts agree exactly; callers handle memory-growth sampling. rec may
// be nil (its methods are nil-safe); when set, the union work is
// attributed to the operand sites. The word-level paths allocate nothing.
func UnionInto(st *Stats, rec *telemetry.Recorder, dst, src RSet) {
	switch dd := dst.(type) {
	case *RSetBits:
		if sd, ok := src.(*RSetBits); ok {
			dd.S.UnionWith(sd.S)
			words := uint64(len(dd.S.Words()))
			st.Count(collections.ImplBitSet, OKUnionWord, words)
			rec.CollOp(dd, int(OKUnionWord), words)
			return
		}
	case *RSetSparse:
		if sd, ok := src.(*RSetSparse); ok {
			dd.S.UnionWith(sd.S)
			n := uint64(sd.S.Len() + 1)
			st.Count(collections.ImplSparseBitSet, OKUnionWord, n)
			rec.CollOp(dd, int(OKUnionWord), n)
			return
		}
	}
	if dg, ok := dst.(*rsetG); ok {
		if sg, ok := src.(*rsetG); ok {
			if df, ok := dg.s.(*collections.FlatSet[Val]); ok {
				if sf, ok := sg.s.(*collections.FlatSet[Val]); ok {
					n := uint64(df.Len() + sf.Len())
					df.UnionWith(sf)
					st.Count(collections.ImplFlatSet, OKUnionWord, n)
					rec.CollOp(dg, int(OKUnionWord), n)
					return
				}
			}
		}
	}
	// Generic element-wise union: iterate src, insert into dst.
	src.Iterate(func(v Val) bool {
		st.Count(src.Impl(), OKIter, 1)
		st.Count(dst.Impl(), OKInsert, 1)
		rec.CollOp(src, int(OKIter), 1)
		rec.CollOp(dst, int(OKInsert), 1)
		dst.Insert(v)
		return true
	})
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

func isFloat(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	return ok && (st.Kind == ir.F32 || st.Kind == ir.F64)
}

func (ip *Interp) binOp(fn *ir.Func, in *ir.Instr, x, y Val) (Val, error) {
	t := in.Args[0].Base.Type
	if isFloat(t) {
		a, b := x.Flt(), y.Flt()
		switch in.Bin {
		case ir.BinAdd:
			return FloatV(a + b), nil
		case ir.BinSub:
			return FloatV(a - b), nil
		case ir.BinMul:
			return FloatV(a * b), nil
		case ir.BinDiv:
			return FloatV(a / b), nil
		case ir.BinMin:
			return FloatV(math.Min(a, b)), nil
		case ir.BinMax:
			return FloatV(math.Max(a, b)), nil
		default:
			return Val{}, ip.errf(fn, "float %v unsupported", in.Bin)
		}
	}
	a, b := x.I, y.I
	signed := intIsSigned(t)
	switch in.Bin {
	case ir.BinAdd:
		return IntV(a + b), nil
	case ir.BinSub:
		return IntV(a - b), nil
	case ir.BinMul:
		return IntV(a * b), nil
	case ir.BinDiv:
		if b == 0 {
			return Val{}, ip.errf(fn, "division by zero")
		}
		if signed {
			return IntV(uint64(int64(a) / int64(b))), nil
		}
		return IntV(a / b), nil
	case ir.BinRem:
		if b == 0 {
			return Val{}, ip.errf(fn, "remainder by zero")
		}
		if signed {
			return IntV(uint64(int64(a) % int64(b))), nil
		}
		return IntV(a % b), nil
	case ir.BinAnd:
		return IntV(a & b), nil
	case ir.BinOr:
		return IntV(a | b), nil
	case ir.BinXor:
		return IntV(a ^ b), nil
	case ir.BinShl:
		return IntV(a << (b & 63)), nil
	case ir.BinShr:
		if signed {
			return IntV(uint64(int64(a) >> (b & 63))), nil
		}
		return IntV(a >> (b & 63)), nil
	case ir.BinMin:
		if signed {
			if int64(a) < int64(b) {
				return IntV(a), nil
			}
			return IntV(b), nil
		}
		if a < b {
			return IntV(a), nil
		}
		return IntV(b), nil
	case ir.BinMax:
		if signed {
			if int64(a) > int64(b) {
				return IntV(a), nil
			}
			return IntV(b), nil
		}
		if a > b {
			return IntV(a), nil
		}
		return IntV(b), nil
	}
	return Val{}, ip.errf(fn, "unsupported bin op")
}

func (ip *Interp) cmpOp(in *ir.Instr, x, y Val) bool {
	switch in.Cmp {
	case ir.CmpEq:
		return EqVal(x, y)
	case ir.CmpNe:
		return !EqVal(x, y)
	}
	t := in.Args[0].Base.Type
	var c int
	switch {
	case isFloat(t):
		switch {
		case x.Flt() < y.Flt():
			c = -1
		case x.Flt() > y.Flt():
			c = 1
		}
	case intIsSigned(t):
		switch {
		case int64(x.I) < int64(y.I):
			c = -1
		case int64(x.I) > int64(y.I):
			c = 1
		}
	default:
		c = CmpVal(x, y)
	}
	switch in.Cmp {
	case ir.CmpLt:
		return c < 0
	case ir.CmpLe:
		return c <= 0
	case ir.CmpGt:
		return c > 0
	case ir.CmpGe:
		return c >= 0
	}
	return false
}

func CastVal(x Val, to ir.Type) Val {
	st, ok := to.(*ir.ScalarType)
	if !ok {
		return x
	}
	switch st.Kind {
	case ir.F32, ir.F64:
		if x.K == VInt {
			return FloatV(float64(x.I))
		}
		return x
	default:
		var bitsv uint64
		if x.K == VFloat {
			bitsv = uint64(int64(x.Flt()))
		} else {
			bitsv = x.I
		}
		switch st.Bits() {
		case 8:
			bitsv &= 0xff
		case 16:
			bitsv &= 0xffff
		case 32:
			bitsv &= 0xffffffff
		}
		return IntV(bitsv)
	}
}
