// Package vm is the fast second execution engine for MEMOIR programs:
// a switch-dispatch register VM over the bytecode produced by
// internal/bytecode. It executes the same runtime values, collections
// and enumerations as the tree-walking interpreter (internal/interp)
// and preserves its full measurement surface — per-(implementation,
// operation) counts, sparse/dense classification, step counts, the
// peak-memory model and the emit checksum are identical for identical
// programs and inputs, so every experiment can run on either engine.
//
// The speed comes from work the compiler already did: type dispatch is
// baked into specialized opcodes, constants are preloaded registers,
// structured control flow is jumps over a flat instruction array, and
// operand access is direct frame indexing. The dispatch loop keeps its
// step and scalar-op tallies in locals (flushed into the shared Stats
// at every boundary the interpreter could observe: nested frames, the
// ROI marker, and every exit) so the hot path performs no shared-state
// read-modify-write per instruction while remaining count-identical.
package vm

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"time"

	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// VM executes a compiled MEMOIR program. Mirrors interp.Interp's
// measurement state field for field.
type VM struct {
	Prog  *bytecode.Prog
	Stats *interp.Stats
	opts  interp.Options

	// Enumeration globals, indexed parallel to Prog.Globals.
	globals []*interp.Enum

	live        []interface{ Bytes() int64 }
	untilSample int

	// limited is true when any interruption source (step budget,
	// memory budget, context) is configured; the dispatch fast path
	// checks this single bool before the full interruption test.
	limited bool

	// stop holds a pending memory-budget violation detected during a
	// footprint sample; it surfaces at the next step checkpoint so
	// both engines abort at the same dynamic point.
	stop *interp.LimitError

	// localSlot[site] is the reusable live-registry slot of an
	// iteration-local allocation site (-1 until first allocation).
	localSlot []int32

	// tele is non-nil when Options.Telemetry is set.
	tele *telemetry.Recorder

	// Output holds emitted values when RecordOutput is set.
	Output []interp.Val

	// ROI marker state, split off by the roi instruction.
	ROISnapshot *interp.Stats
	ROIStart    time.Time
}

// New returns a VM for the compiled program. Options are normalized
// exactly as interp.New does; TrackReads is interpreter-only and
// ignored here (the dataflow property tests run on the interpreter).
func New(prog *bytecode.Prog, opts interp.Options) *VM {
	if opts.MemSampleEvery <= 0 {
		opts.MemSampleEvery = 512
	}
	if opts.DefaultSet == collections.ImplNone {
		opts.DefaultSet = collections.ImplHashSet
	}
	if opts.DefaultMap == collections.ImplNone {
		opts.DefaultMap = collections.ImplHashMap
	}
	m := &VM{
		Prog:        prog,
		Stats:       &interp.Stats{},
		opts:        opts,
		globals:     make([]*interp.Enum, len(prog.Globals)),
		untilSample: opts.MemSampleEvery,
		localSlot:   make([]int32, len(prog.AllocSites)),
		tele:        opts.Telemetry,
	}
	for i := range m.localSlot {
		m.localSlot[i] = -1
	}
	m.limited = opts.MaxSteps > 0 || opts.MaxBytes > 0 || opts.Context != nil
	return m
}

// MarkROI snapshots the stats and wall clock; executed by the roi op.
func (m *VM) MarkROI() {
	snap := *m.Stats
	m.ROISnapshot = &snap
	m.ROIStart = time.Now()
}

// ROIStats returns the kernel-only stats (total minus the snapshot at
// the roi marker); when no marker ran it returns the full stats.
func (m *VM) ROIStats() *interp.Stats {
	if m.ROISnapshot == nil {
		return m.Stats
	}
	return interp.ROIDelta(m.Stats, m.ROISnapshot)
}

// NewColl materializes an empty collection of type ct and registers it
// for memory accounting, exactly like interp.(*Interp).NewColl.
func (m *VM) NewColl(ct *ir.CollType) interp.Coll {
	if fa := m.opts.Faults; fa != nil && fa.FailAlloc() {
		panic(&faults.InjectedFault{P: fa.Point()})
	}
	c := interp.NewCollFor(ct, m.opts.DefaultSet, m.opts.DefaultMap)
	m.register(c)
	return c
}

func (m *VM) register(c interface{ Bytes() int64 }) {
	m.live = append(m.live, c)
	m.grew()
}

// grew counts one growth event, sampling the footprint every
// MemSampleEvery-th event (a countdown instead of a modulo: same
// sample schedule, no integer division on the mutation fast path).
func (m *VM) grew() {
	m.untilSample--
	if m.untilSample <= 0 {
		m.untilSample = m.opts.MemSampleEvery
		m.sampleMem()
	}
}

func (m *VM) sampleMem() {
	var total int64
	for _, c := range m.live {
		total += c.Bytes()
	}
	m.Stats.CurBytes = total
	if total > m.Stats.PeakBytes {
		m.Stats.PeakBytes = total
	}
	if m.opts.MaxBytes > 0 && total > m.opts.MaxBytes && m.stop == nil {
		m.stop = &interp.LimitError{Kind: interp.ErrMemBudget, Bytes: total}
	}
}

// FinalizeMem folds a final footprint sample into the stats.
func (m *VM) FinalizeMem() { m.sampleMem() }

// Global returns the enumeration global with the given Prog.Globals
// index, creating it on first use.
func (m *VM) global(idx int32) *interp.Enum {
	e := m.globals[idx]
	if e == nil {
		e = interp.NewEnum()
		m.globals[idx] = e
		m.register(e)
		if m.tele != nil {
			m.tele.TrackEnum(e, m.Prog.Globals[idx])
		}
	}
	return e
}

// tcoll forwards one collection operation to the telemetry recorder.
func (m *VM) tcoll(c any, k interp.OpKind, n uint64) {
	if m.tele != nil {
		m.tele.CollOp(c, int(k), n)
	}
}

func (m *VM) errf(f *bytecode.Func, format string, args ...any) error {
	return errors.New("@" + f.Name + ": " + fmt.Sprintf(format, args...))
}

// Run executes the named function with the given arguments and returns
// its result. A Go panic during execution (an engine bug or an
// injected fault) is recovered here and returned as a *LimitError
// wrapping interp.ErrRuntimePanic, mirroring the interpreter's Run.
func (m *VM) Run(name string, args ...interp.Val) (ret interp.Val, err error) {
	idx, ok := m.Prog.ByName[name]
	if !ok {
		return interp.Val{}, fmt.Errorf("vm: no function @%s", name)
	}
	f := m.Prog.Funcs[idx]
	defer func() {
		if r := recover(); r != nil {
			ret, err = interp.Val{}, interp.RecoveredError(r, f.Name, m.Stats.Steps)
		}
	}()
	if err := m.checkArity(f, len(args)); err != nil {
		return interp.Val{}, err
	}
	fr := newFrame(f)
	for i, r := range f.ParamRegs {
		fr[r] = args[i]
	}
	ret, _, err = m.run(f, fr, 0, int32(len(f.Code)))
	return ret, err
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

// get reads an operand: a plain register, or a register followed by a
// compiled nesting path. The dispatch loop inlines the plain-register
// case by hand; this helper remains for argument lists.
func (m *VM) get(f *bytecode.Func, fr []interp.Val, o bytecode.Operand) (interp.Val, error) {
	v := fr[o.Reg]
	if o.Path < 0 {
		return v, nil
	}
	return m.walkPath(f, fr, v, o.Path)
}

// walkPath mirrors interp.(*Interp).resolve: intermediate map and
// sequence lookups are real dynamic accesses, counted as reads on the
// outer container, with identical check ordering and diagnostics.
func (m *VM) walkPath(f *bytecode.Func, fr []interp.Val, cur interp.Val, path int32) (interp.Val, error) {
	for _, ix := range f.Paths[path] {
		switch ix.Kind {
		case ir.IdxField:
			if cur.K != interp.VTuple || int(ix.Num) >= len(cur.Tuple()) {
				return interp.Val{}, m.errf(f, "tuple access .%d on %v", ix.Num, cur)
			}
			cur = cur.Tuple()[ix.Num]
		default:
			if cur.K != interp.VColl {
				return interp.Val{}, m.errf(f, "indexing non-collection %v", cur)
			}
			var key interp.Val
			switch ix.Kind {
			case ir.IdxValue:
				key = fr[ix.Reg]
			case ir.IdxConst:
				key = interp.IntV(ix.Num)
			case ir.IdxEnd:
				return interp.Val{}, m.errf(f, "end index cannot be resolved as a value")
			}
			switch c := cur.Ref().(type) {
			case *interp.RMapBit:
				m.Stats.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				v, ok := c.M.Get(uint32(key.I))
				if !ok {
					return interp.Val{}, m.errf(f, "nested read of missing key %v", key)
				}
				cur = v
			case *interp.RMapHash:
				m.Stats.Count(collections.ImplHashMap, interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return interp.Val{}, m.errf(f, "nested read of missing key %v", key)
				}
				cur = v
			case interp.RMap:
				m.Stats.Count(c.Impl(), interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return interp.Val{}, m.errf(f, "nested read of missing key %v", key)
				}
				cur = v
			case *interp.RSeqArr:
				i := int(key.I)
				if i < 0 || i >= c.S.Len() {
					return interp.Val{}, m.errf(f, "nested seq index %d out of range [0,%d)", i, c.S.Len())
				}
				m.Stats.Count(collections.ImplArray, interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				cur = c.S.Get(i)
			case interp.RSeq:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					return interp.Val{}, m.errf(f, "nested seq index %d out of range [0,%d)", i, c.Len())
				}
				m.Stats.Count(c.Impl(), interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				cur = c.Get(i)
			default:
				return interp.Val{}, m.errf(f, "indexing into a set")
			}
		}
	}
	return cur, nil
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
	tcount *uint64      // telemetry per-element counter, nil when off
	idx    int          // seq position / hash slot cursor
	wi     int          // dense word index
	w      uint64       // remaining bits of the current word
	elems  []interp.Val // seq backing storage
	words  []uint64     // dense presence words
	state  []uint8      // hash slot states
	bm     *collections.BitMap[interp.Val]
	vmap   *interp.ValMap
	vset   *interp.ValSet
}

const (
	itSeq uint8 = iota
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
	maxSteps := m.opts.MaxSteps
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
					if it.state[i] == interp.SlotFull {
						*it.count++
						if it.tcount != nil {
							*it.tcount++
						}
						fr[it.kReg], fr[it.vReg] = it.vmap.SlotAt(i)
						pc = it.bodyLo
						continue dispatch
					}
				}
			case itHashSet:
				for it.idx < len(it.state) {
					i := it.idx
					it.idx++
					if it.state[i] == interp.SlotFull {
						*it.count++
						if it.tcount != nil {
							*it.tcount++
						}
						k := it.vset.SlotAt(i)
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
			if m.limited && op != bytecode.OpForEach {
				if steps > budget {
					err = &interp.LimitError{Kind: interp.ErrStepBudget, Fn: f.Name, Steps: st.Steps + steps}
					goto out
				}
				if m.stop != nil {
					le := *m.stop
					le.Fn = f.Name
					le.Steps = st.Steps + steps
					err = &le
					goto out
				}
				if m.opts.Context != nil && (st.Steps+steps)&1023 == 1 && m.opts.Context.Err() != nil {
					err = &interp.LimitError{Kind: interp.ErrDeadline, Fn: f.Name, Steps: st.Steps + steps}
					goto out
				}
			}
		}
		switch op {
		case bytecode.OpNop, bytecode.OpStep:

		case bytecode.OpMove:
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpJump:
			pc = in.Aux

		case bytecode.OpJumpIf:
			if fr[in.A.Reg].Bool() {
				pc = in.Aux
			}

		case bytecode.OpJumpIfNot:
			if !fr[in.A.Reg].Bool() {
				pc = in.Aux
			}

		case bytecode.OpForEach:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			if cv.K != interp.VColl {
				err = m.errf(f, "for-each over non-collection %v", cv)
				goto out
			}
			coll := cv.Coll()
			interp.CountIterSetup(st, m.tele, coll)
			iterCount := &st.Counts[coll.Impl()][interp.OKIter]
			tcount := m.tele.IterCounter(coll) // nil on a nil recorder
			kReg, vReg := in.Dst, in.Dst2
			bodyLo, bodyHi := in.Aux, in.Aux2
			// Pausable containers iterate inline: push an iterState over
			// the same storage their Iterate methods range over (same
			// visit order, same behaviour under mid-iteration mutation)
			// and let the dispatch loop advance it. The local tallies
			// keep accumulating — the body runs in this same frame.
			switch c := coll.(type) {
			case *interp.RSeqArr:
				iters = append(iters, iterState{kind: itSeq, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, elems: c.S.Slice()})
				pc, hi = bodyHi, bodyHi
			case *interp.RSetBits:
				iters = append(iters, iterState{kind: itDense, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, wi: -1, words: c.S.Words()})
				pc, hi = bodyHi, bodyHi
			case *interp.RMapBit:
				iters = append(iters, iterState{kind: itDense, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, wi: -1, words: c.M.Words(), bm: c.M})
				pc, hi = bodyHi, bodyHi
			case *interp.RMapHash:
				iters = append(iters, iterState{kind: itHashMap, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, state: c.States(), vmap: &c.ValMap})
				pc, hi = bodyHi, bodyHi
			case *interp.RSetHash:
				iters = append(iters, iterState{kind: itHashSet, kReg: kReg, vReg: vReg,
					bodyLo: bodyLo, contPC: bodyHi, retHi: hi, count: iterCount, tcount: tcount, state: c.States(), vset: &c.ValSet})
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
				case interp.RSeq:
					c.Iterate(func(i int, v interp.Val) bool { return step(interp.IntV(uint64(i)), v) })
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
			rv = fr[in.A.Reg]
			if in.A.Path >= 0 {
				if rv, err = m.walkPath(f, fr, rv, in.A.Path); err != nil {
					goto out
				}
			}
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
			for i, o := range list {
				if cfr[callee.ParamRegs[i]], err = m.get(f, fr, o); err != nil {
					goto out
				}
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

		case bytecode.OpRaise:
			err = errors.New(m.Prog.Msgs[in.Aux])
			goto out

		case bytecode.OpNewColl:
			site := &m.Prog.AllocSites[in.Aux]
			if fa := m.opts.Faults; fa != nil && fa.FailAlloc() {
				panic(&faults.InjectedFault{P: fa.Point()})
			}
			c := interp.NewCollFor(site.Type, m.opts.DefaultSet, m.opts.DefaultMap)
			// Register persistently first, then demote iteration-local
			// allocations to their reusable slot — the same two growth
			// events per allocation the interpreter records.
			m.register(c)
			if site.IterLocal {
				m.live = m.live[:len(m.live)-1]
				if slot := m.localSlot[in.Aux]; slot >= 0 {
					m.live[slot] = c
					m.grew()
				} else {
					m.localSlot[in.Aux] = int32(len(m.live))
					m.register(c)
				}
			}
			if m.tele != nil {
				m.tele.TrackColl(c, telemetry.SiteKey{Fn: site.Fn, Alloc: site.Alloc})
			}
			fr[in.Dst] = interp.CollV(c)

		case bytecode.OpNewEnum:
			e := interp.NewEnum()
			m.register(e)
			if m.tele != nil {
				m.tele.TrackEnum(e, "")
			}
			fr[in.Dst] = interp.EnumV(e)

		case bytecode.OpEnumGlobal:
			fr[in.Dst] = interp.EnumV(m.global(in.Aux))

		case bytecode.OpReadMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			var v interp.Val
			var ok bool
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				v, ok = c.M.Get(uint32(key.I))
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				v, ok = c.Get(key)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
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
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RSeqArr:
				i := int(key.I)
				if i < 0 || i >= c.S.Len() {
					err = m.errf(f, "seq read index %d out of range [0,%d)", i, c.S.Len())
					goto out
				}
				st.Count(collections.ImplArray, interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				fr[in.Dst] = c.S.Get(i)
			case interp.RSeq:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					err = m.errf(f, "seq read index %d out of range [0,%d)", i, c.Len())
					goto out
				}
				st.Count(c.Impl(), interp.OKRead, 1)
				m.tcoll(c, interp.OKRead, 1)
				fr[in.Dst] = c.Get(i)
			default:
				err = m.errf(f, "read on set")
				goto out
			}

		case bytecode.OpHasSet:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			var has bool
			switch c := cv.Ref().(type) {
			case *interp.RSetBits:
				st.Count(collections.ImplBitSet, interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.S.Has(uint32(key.I))
			case *interp.RSetSparse:
				st.Count(collections.ImplSparseBitSet, interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.S.Has(uint32(key.I))
			case *interp.RSetHash:
				st.Count(collections.ImplHashSet, interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.Has(key)
			case interp.RSet:
				st.Count(c.Impl(), interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.Has(key)
			default:
				err = m.errf(f, "has on seq")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(has)

		case bytecode.OpHasMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			var has bool
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.M.Has(uint32(key.I))
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.Has(key)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKHas, 1)
				m.tcoll(c, interp.OKHas, 1)
				has = c.HasKey(key)
			default:
				err = m.errf(f, "has on seq")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(has)

		case bytecode.OpSize:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			c := cv.Coll()
			st.Count(c.Impl(), interp.OKSize, 1)
			m.tcoll(c, interp.OKSize, 1)
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(c.Len())

		case bytecode.OpWriteMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKWrite, 1)
				if !c.M.Has(uint32(key.I)) {
					err = m.errf(f, "write to missing key %v (insert first)", key)
					goto out
				}
				c.M.Put(uint32(key.I), val)
				m.tcoll(c, interp.OKWrite, 1)
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKWrite, 1)
				if !c.Has(key) {
					err = m.errf(f, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.tcoll(c, interp.OKWrite, 1)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKWrite, 1)
				if !c.HasKey(key) {
					err = m.errf(f, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.tcoll(c, interp.OKWrite, 1)
			default:
				err = m.errf(f, "write on set")
				goto out
			}
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpWriteSeq:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			c, ok := cv.Coll().(interp.RSeq)
			if !ok {
				err = m.errf(f, "write on set")
				goto out
			}
			i := int(key.I)
			if i < 0 || i >= c.Len() {
				err = m.errf(f, "seq write index %d out of range", i)
				goto out
			}
			st.Count(c.Impl(), interp.OKWrite, 1)
			c.Set(i, val)
			m.tcoll(c, interp.OKWrite, 1)
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertSet:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RSetBits:
				st.Count(collections.ImplBitSet, interp.OKInsert, 1)
				c.S.Insert(uint32(key.I))
				m.tcoll(c, interp.OKInsert, 1)
			case *interp.RSetSparse:
				st.Count(collections.ImplSparseBitSet, interp.OKInsert, 1)
				c.S.Insert(uint32(key.I))
				m.tcoll(c, interp.OKInsert, 1)
			case *interp.RSetHash:
				st.Count(collections.ImplHashSet, interp.OKInsert, 1)
				c.Insert(key)
				m.tcoll(c, interp.OKInsert, 1)
			case interp.RSet:
				st.Count(c.Impl(), interp.OKInsert, 1)
				c.Insert(key)
				m.tcoll(c, interp.OKInsert, 1)
			}
			if m.tele != nil {
				m.tele.KeyObs(cv.Ref(), key.Bits())
			}
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKInsert, 1)
				if !c.M.Has(uint32(key.I)) {
					zv := interp.ZeroVal(c.ElemType(), m.NewColl)
					if m.tele != nil {
						m.tele.TrackInner(zv.Ref(), c)
					}
					c.M.Put(uint32(key.I), zv)
				}
				m.tcoll(c, interp.OKInsert, 1)
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKInsert, 1)
				if !c.Has(key) {
					zv := interp.ZeroVal(c.ElemType(), m.NewColl)
					if m.tele != nil {
						m.tele.TrackInner(zv.Ref(), c)
					}
					c.Put(key, zv)
				}
				m.tcoll(c, interp.OKInsert, 1)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKInsert, 1)
				if !c.HasKey(key) {
					zv := interp.ZeroVal(c.ElemType(), m.NewColl)
					if m.tele != nil {
						m.tele.TrackInner(zv.Ref(), c)
					}
					c.Put(key, zv)
				}
				m.tcoll(c, interp.OKInsert, 1)
			}
			if m.tele != nil {
				m.tele.KeyObs(cv.Ref(), key.Bits())
			}
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertSeqEnd:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RSeqArr:
				st.Count(collections.ImplArray, interp.OKInsert, 1)
				m.tcoll(c, interp.OKInsert, 1)
				c.S.Append(val)
			case interp.RSeq:
				st.Count(c.Impl(), interp.OKInsert, 1)
				m.tcoll(c, interp.OKInsert, 1)
				c.Append(val)
			}
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertSeqAt:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RSeq); ok {
				st.Count(c.Impl(), interp.OKInsert, 1)
				m.tcoll(c, interp.OKInsert, 1)
				var pv interp.Val
				if pv, err = m.get(f, fr, in.B); err != nil {
					goto out
				}
				i := int(pv.I)
				if i < 0 || i > c.Len() {
					err = m.errf(f, "seq insert index %d out of range", i)
					goto out
				}
				c.InsertAt(i, val)
			}
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpRemoveSet:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RSet); ok {
				st.Count(c.Impl(), interp.OKRemove, 1)
				c.Remove(key)
				m.tcoll(c, interp.OKRemove, 1)
			}
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpRemoveMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RMap); ok {
				st.Count(c.Impl(), interp.OKRemove, 1)
				c.Remove(key)
				m.tcoll(c, interp.OKRemove, 1)
			}
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpRemoveSeq:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RSeq); ok {
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					err = m.errf(f, "seq remove index %d out of range", i)
					goto out
				}
				st.Count(c.Impl(), interp.OKRemove, 1)
				c.RemoveAt(i)
				m.tcoll(c, interp.OKRemove, 1)
			}
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpClear:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			c := cv.Coll()
			st.Count(c.Impl(), interp.OKClear, 1)
			c.Clear()
			m.tcoll(c, interp.OKClear, 1)
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpUnion:
			dv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if dv, err = m.walkPath(f, fr, dv, in.A.Path); err != nil {
					goto out
				}
			}
			sv := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if sv, err = m.walkPath(f, fr, sv, in.B.Path); err != nil {
					goto out
				}
			}
			dst, ok1 := dv.Coll().(interp.RSet)
			src, ok2 := sv.Coll().(interp.RSet)
			if !ok1 || !ok2 {
				err = m.errf(f, "union on non-sets")
				goto out
			}
			interp.UnionInto(st, m.tele, dst, src)
			m.grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpEnc:
			e := fr[in.A.Reg]
			v := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if v, err = m.walkPath(f, fr, v, in.B.Path); err != nil {
					goto out
				}
			}
			st.Count(interp.ImplEnum, interp.OKEnc, 1)
			if m.tele != nil {
				m.tele.EnumOp(e.Enum(), telemetry.OpEnc, false)
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
			e := fr[in.A.Reg]
			idv := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if idv, err = m.walkPath(f, fr, idv, in.B.Path); err != nil {
					goto out
				}
			}
			st.Count(interp.ImplEnum, interp.OKDec, 1)
			if m.tele != nil {
				m.tele.EnumOp(e.Enum(), telemetry.OpDec, false)
			}
			if int(idv.I) >= e.Enum().Len() {
				err = m.errf(f, "dec of identifier %d outside [0,%d)", idv.I, e.Enum().Len())
				goto out
			}
			fr[in.Dst] = e.Enum().Dec(uint32(idv.I))

		case bytecode.OpEnumAdd:
			e := fr[in.A.Reg]
			v := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if v, err = m.walkPath(f, fr, v, in.B.Path); err != nil {
					goto out
				}
			}
			st.Count(interp.ImplEnum, interp.OKAdd, 1)
			id, added := e.Enum().Add(v)
			if m.tele != nil {
				m.tele.EnumOp(e.Enum(), telemetry.OpAdd, added)
			}
			if added {
				m.grew()
			}
			if fa := m.opts.Faults; fa != nil && fa.CorruptAdd() {
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
			d.K, d.I = interp.VInt, fr[in.A.Reg].I+fr[in.B.Reg].I

		case bytecode.OpSubI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I-fr[in.B.Reg].I

		case bytecode.OpMulI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I*fr[in.B.Reg].I

		case bytecode.OpDivU:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = m.errf(f, "division by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I/b

		case bytecode.OpDivS:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = m.errf(f, "division by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A.Reg].I)/int64(b))

		case bytecode.OpRemU:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = m.errf(f, "remainder by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I%b

		case bytecode.OpRemS:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = m.errf(f, "remainder by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A.Reg].I)%int64(b))

		case bytecode.OpAndI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I&fr[in.B.Reg].I

		case bytecode.OpOrI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I|fr[in.B.Reg].I

		case bytecode.OpXorI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I^fr[in.B.Reg].I

		case bytecode.OpShlI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I<<(fr[in.B.Reg].I&63)

		case bytecode.OpShrU:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I>>(fr[in.B.Reg].I&63)

		case bytecode.OpShrS:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A.Reg].I)>>(fr[in.B.Reg].I&63))

		case bytecode.OpMinU:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if b < a {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMinS:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if int64(b) < int64(a) {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMaxU:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if b > a {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMaxS:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if int64(b) > int64(a) {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpAddF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()+fr[in.B.Reg].Flt())

		case bytecode.OpSubF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()-fr[in.B.Reg].Flt())

		case bytecode.OpMulF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()*fr[in.B.Reg].Flt())

		case bytecode.OpDivF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()/fr[in.B.Reg].Flt())

		case bytecode.OpMinF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(math.Min(fr[in.A.Reg].Flt(), fr[in.B.Reg].Flt()))

		case bytecode.OpMaxF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(math.Max(fr[in.A.Reg].Flt(), fr[in.B.Reg].Flt()))

		case bytecode.OpCmpEq:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(interp.EqVal(fr[in.A.Reg], fr[in.B.Reg]))

		case bytecode.OpCmpNe:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(!interp.EqVal(fr[in.A.Reg], fr[in.B.Reg]))

		case bytecode.OpCmpU:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
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
			a, b := int64(fr[in.A.Reg].I), int64(fr[in.B.Reg].I)
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
			a, b := fr[in.A.Reg].Flt(), fr[in.B.Reg].Flt()
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
			c := interp.CmpVal(fr[in.A.Reg], fr[in.B.Reg])
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpNot:
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(fr[in.A.Reg].I == 0)

		case bytecode.OpSelect:
			if fr[in.A.Reg].Bool() {
				fr[in.Dst] = fr[in.B.Reg]
			} else {
				fr[in.Dst] = fr[in.C.Reg]
			}

		case bytecode.OpCastF:
			x := fr[in.A.Reg]
			if x.K == interp.VInt {
				d := &fr[in.Dst]
				d.K, d.I = interp.VFloat, math.Float64bits(float64(x.I))
			} else {
				fr[in.Dst] = x
			}

		case bytecode.OpCastI:
			x := &fr[in.A.Reg]
			bits := x.I
			if x.K == interp.VFloat {
				bits = uint64(int64(x.Flt()))
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, bits&in.Imm

		case bytecode.OpIdent:
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpTuple:
			list := f.ArgLists[in.Aux]
			fields := make([]interp.Val, len(list))
			for i, o := range list {
				var v interp.Val
				if v, err = m.get(f, fr, o); err != nil {
					goto out
				}
				fields[i] = v
			}
			fr[in.Dst] = interp.TupleV(fields)

		case bytecode.OpField:
			tv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if tv, err = m.walkPath(f, fr, tv, in.A.Path); err != nil {
					goto out
				}
			}
			fields := tv.Tuple()
			if int(in.Aux) >= len(fields) {
				err = m.errf(f, "field %d of %d-tuple", in.Aux, len(fields))
				goto out
			}
			fr[in.Dst] = fields[in.Aux]

		case bytecode.OpEmit:
			v := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if v, err = m.walkPath(f, fr, v, in.A.Path); err != nil {
					goto out
				}
			}
			st.EmitCount++
			st.EmitSum += collections.Mix64(v.Bits())
			if m.opts.RecordOutput {
				m.Output = append(m.Output, v)
			}

		case bytecode.OpROI:
			st.Steps += steps
			st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
			budget -= steps
			steps, nscalar = 0, 0
			m.MarkROI()

		default:
			err = m.errf(f, "unimplemented opcode %v", op)
			goto out
		}
	}
out:
	st.Steps += steps
	st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
	return rv, returned, err
}
