// Package vm is the fast execution engine for MEMOIR programs: a
// switch-dispatch register VM over the bytecode produced by
// internal/bytecode. It owns only dispatch. Everything the paper's
// numbers are read from (Stats, the peak-memory model, emit, the roi
// marker, run timing, allocation and enumeration creation) lives in
// the interp.Runtime it embeds, the same runtime the tree-walking
// interpreter embeds, so both engines account through one code path
// and the VM is diffed against the interpreter only on semantics.
//
// The speed comes from work the compiler already did: type dispatch is
// baked into specialized opcodes, constants are preloaded registers,
// structured control flow is jumps over a flat instruction array, and
// operand access is direct frame indexing. The hot collection and
// enumeration opcodes are inlined in the dispatch loop, which reads the
// runtime's fields directly. The loop keeps its step and scalar-op
// tallies in locals (flushed into the Stats at every boundary the
// interpreter could observe: nested frames, the ROI marker, and every
// exit) so the hot path performs no shared-state read-modify-write per
// instruction while remaining count-identical.
package vm

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"

	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// VM executes a compiled MEMOIR program. The embedded Runtime holds
// every measurement and does all allocation, footprint sampling, emit
// and roi bookkeeping; the VM adds only what dispatching bytecode
// needs.
type VM struct {
	interp.Runtime
	Prog *bytecode.Prog

	// Enumeration globals, indexed parallel to Prog.Globals.
	globals []*interp.Enum

	// localSlot[site] is the reusable live-registry slot of an
	// iteration-local allocation site (-1 until first allocation).
	localSlot []int32
}

// New returns a VM for the compiled program. TrackReads is
// interpreter-only and ignored here (the dataflow property tests run
// on the interpreter).
func New(prog *bytecode.Prog, opts interp.Options) *VM {
	m := &VM{
		Runtime:   interp.NewRuntime(opts),
		Prog:      prog,
		globals:   make([]*interp.Enum, len(prog.Globals)),
		localSlot: make([]int32, len(prog.AllocSites)),
	}
	for i := range m.localSlot {
		m.localSlot[i] = -1
	}
	return m
}

// global returns the enumeration global with Prog.Globals index idx,
// creating it over key on first use.
func (m *VM) global(idx int32, key ir.Type) *interp.Enum {
	e := m.globals[idx]
	if e == nil {
		e = m.NewEnum(key, m.Prog.Globals[idx])
		m.globals[idx] = e
	}
	return e
}

func (m *VM) errf(f *bytecode.Func, format string, args ...any) error {
	return errors.New("@" + f.Name + ": " + fmt.Sprintf(format, args...))
}

// Run executes the named function with the given arguments and returns
// its result, timed and panic-guarded by the runtime's Exec exactly as
// the interpreter's Run is.
func (m *VM) Run(name string, args ...interp.Val) (interp.Val, error) {
	idx, ok := m.Prog.ByName[name]
	if !ok {
		return interp.Val{}, fmt.Errorf("vm: no function @%s", name)
	}
	f := m.Prog.Funcs[idx]
	return m.Exec(f.Name, func() (interp.Val, error) {
		if err := m.checkArity(f, len(args)); err != nil {
			return interp.Val{}, err
		}
		fr := newFrame(f)
		for i, r := range f.ParamRegs {
			fr[r] = args[i]
		}
		ret, _, err := m.run(f, fr, 0, int32(len(f.Code)))
		return ret, err
	})
}

// checkArity rejects a call of f with n arguments. The verifier
// already rejects such a call in verified bytecode.
func (m *VM) checkArity(f *bytecode.Func, n int) error {
	if n != len(f.ParamRegs) {
		return m.errf(f, "called with %d args, want %d", n, len(f.ParamRegs))
	}
	return nil
}

// newFrame returns a fresh register frame for f with its constants
// loaded; the caller writes the parameters.
func newFrame(f *bytecode.Func) []interp.Val {
	fr := make([]interp.Val, f.FrameLen)
	copy(fr[f.NumSlots:], f.Consts)
	return fr
}

// nest reads one hop, mirroring a step of interp.(*Interp).resolve:
// a map or sequence lookup is a real dynamic access, counted as a read
// on the outer container, with identical check ordering and
// diagnostics.
func (m *VM) nest(f *bytecode.Func, fr []interp.Val, in *bytecode.Instr) (interp.Val, error) {
	cur := fr[in.A]
	if ir.IndexKind(in.Aux) == ir.IdxField {
		if cur.K != interp.VTuple || in.Imm >= uint64(len(cur.Tuple())) {
			return interp.Val{}, m.errf(f, "tuple access .%d on %v", in.Imm, cur)
		}
		return cur.Tuple()[in.Imm], nil
	}
	if cur.K != interp.VColl {
		return interp.Val{}, m.errf(f, "indexing non-collection %v", cur)
	}
	var key interp.Val
	switch ir.IndexKind(in.Aux) {
	case ir.IdxValue:
		key = fr[in.B]
	case ir.IdxConst:
		key = interp.IntV(in.Imm)
	case ir.IdxEnd:
		return interp.Val{}, m.errf(f, "end index cannot be resolved as a value")
	}
	switch c := cur.Ref().(type) {
	case *interp.RMapBit:
		m.Stats.Count(collections.ImplBitMap, interp.OKRead, 1)
		m.CollOp(c, interp.OKRead, 1)
		if !c.HasKey(key) {
			return interp.Val{}, m.errf(f, "nested read of missing key %v", key)
		}
		return c.At(uint32(key.I)), nil
	case *interp.RMapHash:
		m.Stats.Count(collections.ImplHashMap, interp.OKRead, 1)
		m.CollOp(c, interp.OKRead, 1)
		if v, ok := c.Get(key); ok {
			return v, nil
		}
	case interp.RMap:
		m.Stats.Count(c.Impl(), interp.OKRead, 1)
		m.CollOp(c, interp.OKRead, 1)
		if v, ok := c.Get(key); ok {
			return v, nil
		}
	case *interp.RSeqArr:
		i := int(key.I)
		if i < 0 || i >= c.Len() {
			return interp.Val{}, m.errf(f, "nested seq index %d out of range [0,%d)", i, c.Len())
		}
		m.Stats.Count(collections.ImplArray, interp.OKRead, 1)
		m.CollOp(c, interp.OKRead, 1)
		return c.Get(i), nil
	default:
		return interp.Val{}, m.errf(f, "indexing into a set")
	}
	return interp.Val{}, m.errf(f, "nested read of missing key %v", key)
}

func cmpHolds(c int, k ir.CmpKind) bool {
	switch k {
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

func b01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// iterState is one active inlined for-each loop. Instead of re-entering
// run per element, the dispatch loop narrows hi to the body's end and
// advances the topmost state whenever pc reaches it, so loop bodies
// execute in the same frame with zero per-element call overhead.
// Containers whose iteration cannot be paused at an element (sparse
// bitsets, the generic Swiss/Flat wrappers) keep the callback path.
type iterState struct {
	kind   uint8
	kReg   int32
	vReg   int32
	bodyLo int32
	contPC int32 // resume pc once the loop completes
	retHi  int32 // enclosing segment's hi to restore
	count  *uint64
	tcount *uint64         // telemetry per-element counter, nil when off
	idx    int             // seq position / hash slot cursor
	wi     int             // dense word index
	w      uint64          // remaining bits of the current word
	elems  []interp.Val    // seq backing storage
	welems []interp.Word   // unboxed seq backing storage
	ek     interp.ValKind  // kind of the welems
	words  []uint64        // dense presence words
	state  []uint8         // hash slot states
	bm     *interp.RMapBit // entries read live through At / SlotAt
	hmap   *interp.RMapHash
	hset   *interp.RSetHash
}

const (
	itSeq uint8 = iota
	itSeqWord
	itDense
	itHashMap
	itHashSet
)

// run executes the code segment [lo, hi) of f against frame fr. The
// bool result reports that an OpReturn/OpReturnVoid fired (only
// possible at segment nesting depth zero — returns inside loops are
// compiled to raises).
//
// Step and scalar-op counts accumulate in locals against a
// precomputed budget and are flushed into m.Stats at the out label,
// before every nested frame (call or for-each body) and before the
// ROI snapshot — every point where shared state becomes observable.
// All exits funnel through the out label so the flush is unmissable;
// a deferred flush would force the accumulators onto the heap.
func (m *VM) run(f *bytecode.Func, fr []interp.Val, lo, hi int32) (rv interp.Val, returned bool, err error) {
	code := f.Code
	st := m.Stats
	maxSteps := m.Opts.MaxSteps
	var steps, nscalar uint64
	budget := uint64(math.MaxUint64)
	if maxSteps > 0 {
		budget = 0
		if st.Steps < maxSteps {
			budget = maxSteps - st.Steps
		}
	}
	var iters []iterState
	pc := lo
dispatch:
	for {
		if pc >= hi {
			if len(iters) == 0 {
				break
			}
			// End of an inlined loop body: advance the topmost
			// iteration, or pop it and resume the enclosing segment.
			it := &iters[len(iters)-1]
			switch it.kind {
			case itSeq:
				if it.idx < len(it.elems) {
					*it.count++
					if it.tcount != nil {
						*it.tcount++
					}
					fr[it.kReg], fr[it.vReg] = interp.IntV(uint64(it.idx)), it.elems[it.idx]
					it.idx++
					pc = it.bodyLo
					continue dispatch
				}
			case itSeqWord:
				if it.idx < len(it.welems) {
					*it.count++
					if it.tcount != nil {
						*it.tcount++
					}
					fr[it.kReg], fr[it.vReg] = interp.IntV(uint64(it.idx)), it.welems[it.idx].Val(it.ek)
					it.idx++
					pc = it.bodyLo
					continue dispatch
				}
			case itDense:
				for it.w == 0 && it.wi+1 < len(it.words) {
					it.wi++
					it.w = it.words[it.wi]
				}
				if it.w != 0 {
					t := mathbits.TrailingZeros64(it.w)
					it.w &= it.w - 1
					k := uint32(it.wi*64 + t)
					*it.count++
					if it.tcount != nil {
						*it.tcount++
					}
					kv := interp.IntV(uint64(k))
					if it.bm != nil {
						fr[it.kReg], fr[it.vReg] = kv, it.bm.At(k)
					} else {
						fr[it.kReg], fr[it.vReg] = kv, kv
					}
					pc = it.bodyLo
					continue dispatch
				}
			case itHashMap:
				for it.idx < len(it.state) {
					i := it.idx
					it.idx++
					if it.state[i] == collections.SlotFull {
						*it.count++
						if it.tcount != nil {
							*it.tcount++
						}
						fr[it.kReg], fr[it.vReg] = it.hmap.SlotAt(i)
						pc = it.bodyLo
						continue dispatch
					}
				}
			case itHashSet:
				for it.idx < len(it.state) {
					i := it.idx
					it.idx++
					if it.state[i] == collections.SlotFull {
						*it.count++
						if it.tcount != nil {
							*it.tcount++
						}
						k := it.hset.SlotAt(i)
						fr[it.kReg], fr[it.vReg] = k, k
						pc = it.bodyLo
						continue dispatch
					}
				}
			}
			pc = it.contPC
			hi = it.retHi
			iters = iters[:len(iters)-1]
			continue
		}
		in := &code[pc]
		pc++
		op := in.Op
		if op > bytecode.OpJumpIfNot {
			// Every stepping opcode is one interpreter step; the
			// interruption test runs everywhere the interpreter runs it
			// (each instruction and each do-while iteration, but not
			// the for-each entry step), in the same fixed order — step
			// budget, pending memory stop, context — so both engines
			// abort at the same dynamic point with the same error kind.
			steps++
			if m.Limited && op != bytecode.OpForEach {
				if steps > budget {
					err = &interp.LimitError{Kind: interp.ErrStepBudget, Fn: f.Name, Steps: st.Steps + steps}
					goto out
				}
				if n := st.Steps + steps; m.Due(n) {
					if e := m.Checkpoint(f.Name, n); e != nil {
						err = e
						goto out
					}
				}
			}
		}
		switch op {
		case bytecode.OpNop, bytecode.OpStep:

		case bytecode.OpMove:
			fr[in.Dst] = fr[in.A]

		case bytecode.OpJump:
			pc = in.Aux

		case bytecode.OpJumpIf:
			if fr[in.A].Bool() {
				pc = in.Aux
			}

		case bytecode.OpJumpIfNot:
			if !fr[in.A].Bool() {
				pc = in.Aux
			}

		case bytecode.OpNest:
			if m.Limited && in.Aux2 != bytecode.NestForEach {
				// The interruption test of the instruction the hop feeds,
				// at that instruction's step.
				n := st.Steps + steps + 1
				if steps >= budget {
					err = &interp.LimitError{Kind: interp.ErrStepBudget, Fn: f.Name, Steps: n}
				} else if m.Due(n) {
					err = m.Checkpoint(f.Name, n)
				}
				if err != nil {
					steps++
					goto out
				}
			}
			if fr[in.Dst], err = m.nest(f, fr, in); err != nil {
				if in.Aux2 != bytecode.NestForEach {
					steps++
				}
				if in.Aux2 == bytecode.NestSeqPos {
					c := fr[in.C].Coll()
					st.Count(c.Impl(), interp.OKInsert, 1)
					m.CollOp(c, interp.OKInsert, 1)
				}
				goto out
			}

		case bytecode.OpForEach:
			cv := fr[in.A]
			if cv.K != interp.VColl {
				err = m.errf(f, "for-each over non-collection %v", cv)
				goto out
			}
			coll := cv.Coll()
			interp.CountIterSetup(st, m.Tele, coll)
			iterCount := &st.Counts[coll.Impl()][interp.OKIter]
			tcount := m.Tele.IterCounter(coll) // nil on a nil recorder
			kReg, vReg := in.Dst, in.Dst2
			bodyLo, bodyHi := in.Aux, in.Aux2
			// Pausable containers iterate inline: push an iterState over
			// the same storage their Iterate methods range over (same
			// visit order, same behaviour under mid-iteration mutation)
			// and let the dispatch loop advance it. The local tallies
			// keep accumulating — the body runs in this same frame.
			switch c := coll.(type) {
			case *interp.RSeqArr:
				it := iterState{kind: itSeq, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount}
				var ws []interp.Word
				it.elems, ws, it.ek = c.Elems()
				if ws != nil {
					it.kind, it.welems = itSeqWord, ws
				}
				iters = append(iters, it)
				pc, hi = bodyHi, bodyHi
			case *interp.RSetBits:
				iters = append(iters, iterState{kind: itDense, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, wi: -1, words: c.S.Words()})
				pc, hi = bodyHi, bodyHi
			case *interp.RMapBit:
				iters = append(iters, iterState{kind: itDense, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, wi: -1, words: c.Words(), bm: c})
				pc, hi = bodyHi, bodyHi
			case *interp.RMapHash:
				iters = append(iters, iterState{kind: itHashMap, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, state: c.States(), hmap: c})
				pc, hi = bodyHi, bodyHi
			case *interp.RSetHash:
				iters = append(iters, iterState{kind: itHashSet, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, state: c.States(), hset: c})
				pc, hi = bodyHi, bodyHi
			default:
				// Callback path: the body runs in nested frames
				// accounting directly against the shared Stats, so
				// flush the local tallies first and resync the budget
				// after.
				st.Steps += steps
				st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
				steps, nscalar = 0, 0
				var iterErr error
				step := func(k, v interp.Val) bool {
					*iterCount++
					if tcount != nil {
						*tcount++
					}
					fr[kReg], fr[vReg] = k, v
					_, ret2, err2 := m.run(f, fr, bodyLo, bodyHi)
					if err2 != nil {
						iterErr = err2
						return false
					}
					if ret2 {
						iterErr = m.errf(f, "return inside for-each is unsupported")
						return false
					}
					return true
				}
				switch c := coll.(type) {
				case *interp.RSetSparse:
					c.S.Iterate(func(k uint32) bool { v := interp.IntV(uint64(k)); return step(v, v) })
				case interp.RSet:
					c.Iterate(func(v interp.Val) bool { return step(v, v) })
				case interp.RMap:
					c.Iterate(step)
				}
				if iterErr != nil {
					err = iterErr
					goto out
				}
				budget = math.MaxUint64
				if maxSteps > 0 {
					budget = 0
					if st.Steps < maxSteps {
						budget = maxSteps - st.Steps
					}
				}
				pc = bodyHi
			}

		case bytecode.OpReturn:
			rv = fr[in.A]
			if len(iters) > 0 {
				err = m.errf(f, "return inside for-each is unsupported")
				goto out
			}
			returned = true
			goto out

		case bytecode.OpReturnVoid:
			if len(iters) > 0 {
				err = m.errf(f, "return inside for-each is unsupported")
				goto out
			}
			returned = true
			goto out

		case bytecode.OpCall:
			callee := m.Prog.Funcs[in.Aux]
			list := f.ArgLists[in.Aux2]
			if err = m.checkArity(callee, len(list)); err != nil {
				goto out
			}
			cfr := newFrame(callee)
			for i, r := range list {
				cfr[callee.ParamRegs[i]] = fr[r]
			}
			st.Steps += steps
			st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
			steps, nscalar = 0, 0
			var ret interp.Val
			if ret, _, err = m.run(callee, cfr, 0, int32(len(callee.Code))); err != nil {
				goto out
			}
			budget = math.MaxUint64
			if maxSteps > 0 {
				budget = 0
				if st.Steps < maxSteps {
					budget = maxSteps - st.Steps
				}
			}
			if in.Dst >= 0 {
				fr[in.Dst] = ret
			}

		case bytecode.OpNewColl:
			site := &m.Prog.AllocSites[in.Aux]
			var c interp.Coll
			if site.IterLocal {
				c = m.NewLocalColl(site.Type, &m.localSlot[in.Aux])
			} else {
				c = m.NewColl(site.Type)
			}
			if m.Tele != nil {
				m.Tele.TrackColl(c, telemetry.SiteKey{Fn: site.Fn, Alloc: site.Alloc})
			}
			fr[in.Dst] = interp.CollV(c)

		case bytecode.OpReadMap:
			cv := fr[in.A]
			key := fr[in.B]
			var v interp.Val
			var ok bool
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.CollOp(c, interp.OKRead, 1)
				if ok = c.HasKey(key); ok {
					v = c.At(uint32(key.I))
				}
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKRead, 1)
				m.CollOp(c, interp.OKRead, 1)
				v, ok = c.Get(key)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKRead, 1)
				m.CollOp(c, interp.OKRead, 1)
				v, ok = c.Get(key)
			default:
				err = m.errf(f, "read on set")
				goto out
			}
			if !ok {
				err = m.errf(f, "read of missing key %v", key)
				goto out
			}
			fr[in.Dst] = v

		case bytecode.OpReadSeq:
			cv := fr[in.A]
			key := fr[in.B]
			switch c := cv.Ref().(type) {
			case *interp.RSeqArr:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					err = m.errf(f, "seq read index %d out of range [0,%d)", i, c.Len())
					goto out
				}
				st.Count(collections.ImplArray, interp.OKRead, 1)
				m.CollOp(c, interp.OKRead, 1)
				fr[in.Dst] = c.Get(i)
			default:
				err = m.errf(f, "read on set")
				goto out
			}

		case bytecode.OpHasSet:
			cv := fr[in.A]
			key := fr[in.B]
			var has bool
			switch c := cv.Ref().(type) {
			case *interp.RSetBits:
				st.Count(collections.ImplBitSet, interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.S.Has(uint32(key.I))
			case *interp.RSetSparse:
				st.Count(collections.ImplSparseBitSet, interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.S.Has(uint32(key.I))
			case *interp.RSetHash:
				st.Count(collections.ImplHashSet, interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.Has(key)
			case interp.RSet:
				st.Count(c.Impl(), interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.Has(key)
			default:
				err = m.errf(f, "has on seq")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(has)

		case bytecode.OpHasMap:
			cv := fr[in.A]
			key := fr[in.B]
			var has bool
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.HasKey(key)
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.Has(key)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKHas, 1)
				m.CollOp(c, interp.OKHas, 1)
				has = c.HasKey(key)
			default:
				err = m.errf(f, "has on seq")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(has)

		case bytecode.OpSize:
			cv := fr[in.A]
			c := cv.Coll()
			st.Count(c.Impl(), interp.OKSize, 1)
			m.CollOp(c, interp.OKSize, 1)
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(c.Len())

		case bytecode.OpWriteMap:
			cv := fr[in.A]
			key := fr[in.B]
			val := fr[in.C]
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKWrite, 1)
				if !c.HasKey(key) {
					err = m.errf(f, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.CollOp(c, interp.OKWrite, 1)
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKWrite, 1)
				if !c.Has(key) {
					err = m.errf(f, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.CollOp(c, interp.OKWrite, 1)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKWrite, 1)
				if !c.HasKey(key) {
					err = m.errf(f, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.CollOp(c, interp.OKWrite, 1)
			default:
				err = m.errf(f, "write on set")
				goto out
			}
			m.Grew()
			fr[in.Dst] = fr[in.A]

		case bytecode.OpInsertSet:
			cv := fr[in.A]
			key := fr[in.B]
			switch c := cv.Ref().(type) {
			case *interp.RSetBits:
				st.Count(collections.ImplBitSet, interp.OKInsert, 1)
				c.S.Insert(uint32(key.I))
				m.CollOp(c, interp.OKInsert, 1)
			case *interp.RSetSparse:
				st.Count(collections.ImplSparseBitSet, interp.OKInsert, 1)
				c.S.Insert(uint32(key.I))
				m.CollOp(c, interp.OKInsert, 1)
			case *interp.RSetHash:
				st.Count(collections.ImplHashSet, interp.OKInsert, 1)
				c.Insert(key)
				m.CollOp(c, interp.OKInsert, 1)
			case interp.RSet:
				st.Count(c.Impl(), interp.OKInsert, 1)
				c.Insert(key)
				m.CollOp(c, interp.OKInsert, 1)
			}
			if m.Tele != nil {
				m.Tele.KeyObs(cv.Ref(), key.Bits())
			}
			m.Grew()
			fr[in.Dst] = fr[in.A]

		case bytecode.OpInsertMap:
			cv := fr[in.A]
			key := fr[in.B]
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKInsert, 1)
				if !c.HasKey(key) {
					zv := interp.ZeroVal(c.ElemType(), m.NewColl)
					if m.Tele != nil {
						m.Tele.TrackInner(zv.Ref(), c)
					}
					c.Put(key, zv)
				}
				m.CollOp(c, interp.OKInsert, 1)
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKInsert, 1)
				if !c.Has(key) {
					zv := interp.ZeroVal(c.ElemType(), m.NewColl)
					if m.Tele != nil {
						m.Tele.TrackInner(zv.Ref(), c)
					}
					c.Put(key, zv)
				}
				m.CollOp(c, interp.OKInsert, 1)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKInsert, 1)
				if !c.HasKey(key) {
					zv := interp.ZeroVal(c.ElemType(), m.NewColl)
					if m.Tele != nil {
						m.Tele.TrackInner(zv.Ref(), c)
					}
					c.Put(key, zv)
				}
				m.CollOp(c, interp.OKInsert, 1)
			}
			if m.Tele != nil {
				m.Tele.KeyObs(cv.Ref(), key.Bits())
			}
			m.Grew()
			fr[in.Dst] = fr[in.A]

		case bytecode.OpInsertSeqEnd:
			cv := fr[in.A]
			val := fr[in.C]
			switch c := cv.Ref().(type) {
			case *interp.RSeqArr:
				st.Count(collections.ImplArray, interp.OKInsert, 1)
				m.CollOp(c, interp.OKInsert, 1)
				c.Append(val)
			}
			m.Grew()
			fr[in.Dst] = fr[in.A]

		case bytecode.OpEnc:
			e := fr[in.A]
			v := fr[in.B]
			st.Count(interp.ImplEnum, interp.OKEnc, 1)
			if m.Tele != nil {
				m.Tele.EnumOp(e.Enum(), telemetry.OpEnc, false)
			}
			id, ok := e.Enum().Enc(v)
			d := &fr[in.Dst]
			if !ok {
				// Values outside the enumeration translate to the
				// never-issued sentinel, as in the interpreter.
				d.K, d.I = interp.VInt, uint64(interp.AbsentID)
			} else {
				d.K, d.I = interp.VInt, uint64(id)
			}

		case bytecode.OpDec:
			e := fr[in.A]
			idv := fr[in.B]
			st.Count(interp.ImplEnum, interp.OKDec, 1)
			if m.Tele != nil {
				m.Tele.EnumOp(e.Enum(), telemetry.OpDec, false)
			}
			if int(idv.I) >= e.Enum().Len() {
				err = m.errf(f, "dec of identifier %d outside [0,%d)", idv.I, e.Enum().Len())
				goto out
			}
			fr[in.Dst] = e.Enum().Dec(uint32(idv.I))

		case bytecode.OpEnumAdd:
			e := fr[in.A]
			v := fr[in.B]
			st.Count(interp.ImplEnum, interp.OKAdd, 1)
			id, added := e.Enum().Add(v)
			if m.Tele != nil {
				m.Tele.EnumOp(e.Enum(), telemetry.OpAdd, added)
			}
			if added {
				m.Grew()
			}
			if fa := m.Opts.Faults; fa != nil && fa.CorruptAdd() {
				e.Enum().CorruptSlot()
			}
			fr[in.Dst] = e
			if in.Dst2 >= 0 {
				d := &fr[in.Dst2]
				d.K, d.I = interp.VInt, uint64(id)
			}

		case bytecode.OpAddI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I+fr[in.B].I

		case bytecode.OpSubI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I-fr[in.B].I

		case bytecode.OpMulI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I*fr[in.B].I

		case bytecode.OpDivU:
			nscalar++
			b := fr[in.B].I
			if b == 0 {
				err = m.errf(f, "division by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I/b

		case bytecode.OpDivS:
			nscalar++
			b := fr[in.B].I
			if b == 0 {
				err = m.errf(f, "division by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A].I)/int64(b))

		case bytecode.OpRemU:
			nscalar++
			b := fr[in.B].I
			if b == 0 {
				err = m.errf(f, "remainder by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I%b

		case bytecode.OpRemS:
			nscalar++
			b := fr[in.B].I
			if b == 0 {
				err = m.errf(f, "remainder by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A].I)%int64(b))

		case bytecode.OpAndI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I&fr[in.B].I

		case bytecode.OpOrI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I|fr[in.B].I

		case bytecode.OpXorI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I^fr[in.B].I

		case bytecode.OpShlI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I<<(fr[in.B].I&63)

		case bytecode.OpShrU:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A].I>>(fr[in.B].I&63)

		case bytecode.OpShrS:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A].I)>>(fr[in.B].I&63))

		case bytecode.OpMinU:
			nscalar++
			a, b := fr[in.A].I, fr[in.B].I
			if b < a {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMinS:
			nscalar++
			a, b := fr[in.A].I, fr[in.B].I
			if int64(b) < int64(a) {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMaxU:
			nscalar++
			a, b := fr[in.A].I, fr[in.B].I
			if b > a {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMaxS:
			nscalar++
			a, b := fr[in.A].I, fr[in.B].I
			if int64(b) > int64(a) {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpAddF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A].Flt()+fr[in.B].Flt())

		case bytecode.OpSubF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A].Flt()-fr[in.B].Flt())

		case bytecode.OpMulF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A].Flt()*fr[in.B].Flt())

		case bytecode.OpDivF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A].Flt()/fr[in.B].Flt())

		case bytecode.OpMinF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(math.Min(fr[in.A].Flt(), fr[in.B].Flt()))

		case bytecode.OpMaxF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(math.Max(fr[in.A].Flt(), fr[in.B].Flt()))

		case bytecode.OpCmpEq:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(interp.EqVal(fr[in.A], fr[in.B]))

		case bytecode.OpCmpNe:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(!interp.EqVal(fr[in.A], fr[in.B]))

		case bytecode.OpCmpU:
			nscalar++
			a, b := fr[in.A].I, fr[in.B].I
			c := 0
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpCmpS:
			nscalar++
			a, b := int64(fr[in.A].I), int64(fr[in.B].I)
			c := 0
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpCmpF:
			nscalar++
			a, b := fr[in.A].Flt(), fr[in.B].Flt()
			c := 0
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpCmpG:
			nscalar++
			c := interp.CmpVal(fr[in.A], fr[in.B])
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpNot:
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(fr[in.A].I == 0)

		case bytecode.OpSelect:
			if fr[in.A].Bool() {
				fr[in.Dst] = fr[in.B]
			} else {
				fr[in.Dst] = fr[in.C]
			}

		case bytecode.OpCastI:
			x := &fr[in.A]
			bits := x.I
			if x.K == interp.VFloat {
				bits = uint64(int64(x.Flt()))
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, bits&in.Imm

		case bytecode.OpIdent:
			fr[in.Dst] = fr[in.A]

		case bytecode.OpEmit:
			v := fr[in.A]
			m.Emit(v)

		case bytecode.OpROI:
			st.Steps += steps
			st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
			budget -= steps
			steps, nscalar = 0, 0
			m.MarkROI()

		default:
			if err = m.slowOp(f, fr, in); err != nil {
				goto out
			}
		}
	}
out:
	st.Steps += steps
	st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
	return rv, returned, err
}

// slowOp executes one of the opcodes the suite almost never dispatches
// (DESIGN.md §19). Their arms live here, out of run, so that run stays
// under the Go compiler's "big function" threshold and may inline the
// accounting calls and dense accessors of every hot arm. Each arm is
// run's own code: the same counts, telemetry and errors, in the same
// order.
func (m *VM) slowOp(f *bytecode.Func, fr []interp.Val, in *bytecode.Instr) error {
	st := m.Stats
	switch in.Op {
	case bytecode.OpRaise:
		return errors.New(m.Prog.Msgs[in.Aux])

	case bytecode.OpNewEnum:
		fr[in.Dst] = interp.EnumV(m.NewEnum(m.Prog.EnumKeys[in.Aux], ""))

	case bytecode.OpEnumGlobal:
		fr[in.Dst] = interp.EnumV(m.global(in.Aux, m.Prog.EnumKeys[in.Aux2]))

	case bytecode.OpWriteSeq:
		cv := fr[in.A]
		key := fr[in.B]
		val := fr[in.C]
		c, ok := cv.Coll().(*interp.RSeqArr)
		if !ok {
			return m.errf(f, "write on set")
		}
		i := int(key.I)
		if i < 0 || i >= c.Len() {
			return m.errf(f, "seq write index %d out of range", i)
		}
		st.Count(c.Impl(), interp.OKWrite, 1)
		c.Set(i, val)
		m.CollOp(c, interp.OKWrite, 1)
		m.Grew()
		fr[in.Dst] = fr[in.A]

	case bytecode.OpInsertSeqAt:
		cv := fr[in.A]
		val := fr[in.C]
		if c, ok := cv.Coll().(*interp.RSeqArr); ok {
			st.Count(c.Impl(), interp.OKInsert, 1)
			m.CollOp(c, interp.OKInsert, 1)
			i := int(fr[in.B].I)
			if i < 0 || i > c.Len() {
				return m.errf(f, "seq insert index %d out of range", i)
			}
			c.InsertAt(i, val)
		}
		m.Grew()
		fr[in.Dst] = fr[in.A]

	case bytecode.OpRemoveSet:
		cv := fr[in.A]
		key := fr[in.B]
		if c, ok := cv.Coll().(interp.RSet); ok {
			st.Count(c.Impl(), interp.OKRemove, 1)
			c.Remove(key)
			m.CollOp(c, interp.OKRemove, 1)
		}
		fr[in.Dst] = fr[in.A]

	case bytecode.OpRemoveMap:
		cv := fr[in.A]
		key := fr[in.B]
		if c, ok := cv.Coll().(interp.RMap); ok {
			st.Count(c.Impl(), interp.OKRemove, 1)
			c.Remove(key)
			m.CollOp(c, interp.OKRemove, 1)
		}
		fr[in.Dst] = fr[in.A]

	case bytecode.OpRemoveSeq:
		cv := fr[in.A]
		key := fr[in.B]
		if c, ok := cv.Coll().(*interp.RSeqArr); ok {
			i := int(key.I)
			if i < 0 || i >= c.Len() {
				return m.errf(f, "seq remove index %d out of range", i)
			}
			st.Count(c.Impl(), interp.OKRemove, 1)
			c.RemoveAt(i)
			m.CollOp(c, interp.OKRemove, 1)
		}
		fr[in.Dst] = fr[in.A]

	case bytecode.OpClear:
		cv := fr[in.A]
		c := cv.Coll()
		st.Count(c.Impl(), interp.OKClear, 1)
		c.Clear()
		m.CollOp(c, interp.OKClear, 1)
		fr[in.Dst] = fr[in.A]

	case bytecode.OpUnion:
		dv := fr[in.A]
		sv := fr[in.B]
		dst, ok1 := dv.Coll().(interp.RSet)
		src, ok2 := sv.Coll().(interp.RSet)
		if !ok1 || !ok2 {
			return m.errf(f, "union on non-sets")
		}
		interp.UnionInto(st, m.Tele, dst, src)
		m.Grew()
		fr[in.Dst] = fr[in.A]

	case bytecode.OpCastF:
		x := fr[in.A]
		if x.K == interp.VInt {
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(float64(x.I))
		} else {
			fr[in.Dst] = x
		}

	case bytecode.OpTuple:
		list := f.ArgLists[in.Aux]
		fields := make([]interp.Val, len(list))
		for i, r := range list {
			fields[i] = fr[r]
		}
		fr[in.Dst] = interp.TupleV(fields)

	case bytecode.OpField:
		tv := fr[in.A]
		fields := tv.Tuple()
		if int(in.Aux) >= len(fields) {
			return m.errf(f, "field %d of %d-tuple", in.Aux, len(fields))
		}
		fr[in.Dst] = fields[in.Aux]

	default:
		return m.errf(f, "unimplemented opcode %v", in.Op)
	}
	return nil
}
