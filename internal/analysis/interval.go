package analysis

import (
	"fmt"
	"math/bits"

	"memoir/internal/ir"
)

// Interval/constant abstract interpretation (an SCCP-style pass) over
// the CFG lowering. The lattice element for a scalar value is an
// inclusive unsigned range [Lo, Hi] of its 64-bit pattern; constants
// are the singleton intervals. The solver runs an ascending worklist
// pass with widening (the range lattice has unbounded ascending
// chains), then a bounded number of descending (narrowing) sweeps that
// re-tighten loop-carried facts through branch-condition refinement on
// CFG edges. Starting the descending sweeps from a post-fixpoint keeps
// every intermediate state an over-approximation, so stopping after a
// fixed number of sweeps is sound.
//
// A fact is a dense vector with one slot per value of the function
// whose type can carry a non-top interval (integer, bool and pointer
// scalars); floats, strings and collections are always top. Each CFG
// block owns one in and one out vector, reused across every pass and
// round, so block transfers, edge refinements and joins copy and loop
// over slots instead of allocating.
//
// On top of the per-value ranges the pass derives per-allocation-site
// key/element summaries (the join of every inserted key's range),
// which flow back into for-each key bindings and across `union`
// edges, and interprocedural return summaries (context-insensitive,
// parameters unknown) that flow through direct calls. Both summary
// kinds start at top and are re-derived over up to three whole-program
// rounds, stopping once the summaries repeat: each round applies a
// monotone function to the previous round's summaries, so every
// round's output remains an over-approximation of the runtime
// behaviour, and a round that reproduces its input summaries would be
// repeated verbatim by the next.

// Interval is an inclusive range [Lo, Hi] over unsigned 64-bit value
// patterns. The full range is top (nothing known).
type Interval struct{ Lo, Hi uint64 }

const maxU64 = ^uint64(0)

// TopInterval returns the unconstrained interval.
func TopInterval() Interval { return Interval{0, maxU64} }

// IsTop reports whether nothing is known about the value.
func (iv Interval) IsTop() bool { return iv.Lo == 0 && iv.Hi == maxU64 }

// Const returns the singleton constant, if the interval proves one.
func (iv Interval) Const() (uint64, bool) { return iv.Lo, iv.Lo == iv.Hi }

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x uint64) bool { return iv.Lo <= x && x <= iv.Hi }

// Within reports whether iv lies entirely inside [lo, hi].
func (iv Interval) Within(lo, hi uint64) bool { return lo <= iv.Lo && iv.Hi <= hi }

func (iv Interval) String() string {
	if iv.IsTop() {
		return "[0,+inf)"
	}
	if c, ok := iv.Const(); ok {
		return fmt.Sprintf("[%d]", c)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

func joinIv(a, b Interval) Interval {
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// meetIv intersects two intervals; ok is false when they are disjoint.
func meetIv(a, b Interval) (Interval, bool) {
	if b.Lo > a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi < a.Hi {
		a.Hi = b.Hi
	}
	return a, a.Lo <= a.Hi
}

// intLike reports whether values of type t can carry a non-top
// interval: integer, bool and pointer scalars.
func intLike(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	if !ok {
		return false
	}
	switch st.Kind {
	case ir.F32, ir.F64, ir.Str, ir.Void:
		return false
	}
	return true
}

// constIv returns the interval of a constant value's bit pattern.
func constIv(v *ir.Value) (Interval, bool) {
	if !intLike(v.Type) {
		return Interval{}, false
	}
	return Interval{v.ConstInt, v.ConstInt}, true
}

// ivFact holds the intervals of a function's indexed values at one
// program point, at the slots its ivIndex assigns. A nil fact means
// the point is unreachable.
type ivFact []Interval

// ivIndex assigns a fact slot to every non-constant value of a
// function whose type is intLike. Values without a slot are top.
type ivIndex map[*ir.Value]int32

func (x ivIndex) set(f ivFact, v *ir.Value, iv Interval) {
	if i, ok := x[v]; ok {
		f[i] = iv
	}
}

// eval returns the interval of v in f.
func (x ivIndex) eval(f ivFact, v *ir.Value) Interval {
	if v == nil || f == nil {
		return TopInterval()
	}
	if v.Kind == ir.VConst {
		if iv, ok := constIv(v); ok {
			return iv
		}
		return TopInterval()
	}
	if i, ok := x[v]; ok {
		return f[i]
	}
	return TopInterval()
}

func isSignedType(t ir.Type) bool {
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

// nonNeg reports whether every pattern in the interval reads the same
// under signed and unsigned interpretation (sign bit clear).
func nonNeg(iv Interval) bool { return iv.Hi < 1<<63 }

// unsignedOrder reports whether unsigned interval reasoning applies to
// an ordered comparison or division on operands of type t.
func unsignedOrder(t ir.Type, a, b Interval) bool {
	if !isSignedType(t) {
		return true
	}
	return nonNeg(a) && nonNeg(b)
}

// binIv is the transfer function of OpBin. t is the type of the first
// operand (the engines pick signed semantics from it). All arithmetic
// in the engines is 64-bit with wraparound, so every bound here is a
// bound on the actual stored pattern.
func binIv(kind ir.BinKind, t ir.Type, a, b Interval) Interval {
	top := TopInterval()
	switch kind {
	case ir.BinAdd:
		hi := a.Hi + b.Hi
		if hi < a.Hi { // wrapped
			return top
		}
		return Interval{a.Lo + b.Lo, hi}
	case ir.BinSub:
		if a.Lo < b.Hi { // may wrap below zero
			return top
		}
		return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
	case ir.BinMul:
		if carry, lo := bits.Mul64(a.Hi, b.Hi); carry == 0 {
			return Interval{a.Lo * b.Lo, lo}
		}
		return top
	case ir.BinDiv:
		if !unsignedOrder(t, a, b) || b.Hi == 0 {
			return top
		}
		blo := b.Lo
		if blo == 0 {
			blo = 1
		}
		return Interval{a.Lo / b.Hi, a.Hi / blo}
	case ir.BinRem:
		if !unsignedOrder(t, a, b) || b.Hi == 0 {
			return top
		}
		if c, ok := b.Const(); ok && a.Hi < c {
			return a // a % c == a when a < c
		}
		hi := b.Hi - 1
		if a.Hi < hi {
			hi = a.Hi
		}
		return Interval{0, hi}
	case ir.BinAnd:
		hi := a.Hi
		if b.Hi < hi {
			hi = b.Hi
		}
		return Interval{0, hi}
	case ir.BinOr:
		l := bits.Len64(a.Hi | b.Hi)
		if l >= 64 {
			return top
		}
		lo := a.Lo
		if b.Lo > lo {
			lo = b.Lo
		}
		return Interval{lo, 1<<uint(l) - 1}
	case ir.BinXor:
		l := bits.Len64(a.Hi | b.Hi)
		if l >= 64 {
			return top
		}
		return Interval{0, 1<<uint(l) - 1}
	case ir.BinShl:
		if b.Hi > 63 {
			return top
		}
		if a.Hi != 0 && bits.Len64(a.Hi)+int(b.Hi) > 64 {
			return top
		}
		return Interval{a.Lo << b.Lo, a.Hi << b.Hi}
	case ir.BinShr:
		if !unsignedOrder(t, a, b) || b.Hi > 63 {
			return top
		}
		return Interval{a.Lo >> b.Hi, a.Hi >> b.Lo}
	case ir.BinMin:
		if !unsignedOrder(t, a, b) {
			return top
		}
		lo, hi := a.Lo, a.Hi
		if b.Lo < lo {
			lo = b.Lo
		}
		if b.Hi < hi {
			hi = b.Hi
		}
		return Interval{lo, hi}
	case ir.BinMax:
		if !unsignedOrder(t, a, b) {
			return top
		}
		lo, hi := a.Lo, a.Hi
		if b.Lo > lo {
			lo = b.Lo
		}
		if b.Hi > hi {
			hi = b.Hi
		}
		return Interval{lo, hi}
	}
	return top
}

// cmpIv is the transfer function of OpCmp: a boolean interval, folded
// to a constant when the operand ranges decide the comparison.
func cmpIv(kind ir.CmpKind, t ir.Type, a, b Interval) Interval {
	unknown := Interval{0, 1}
	tt := Interval{1, 1}
	ff := Interval{0, 0}
	switch kind {
	case ir.CmpEq, ir.CmpNe:
		_, overlap := meetIv(a, b)
		ca, aok := a.Const()
		cb, bok := b.Const()
		var r Interval
		switch {
		case !overlap:
			r = ff
		case aok && bok && ca == cb:
			r = tt
		default:
			return unknown
		}
		if kind == ir.CmpNe {
			r.Lo, r.Hi = 1-r.Hi, 1-r.Lo
		}
		return r
	}
	if !unsignedOrder(t, a, b) {
		return unknown
	}
	switch kind {
	case ir.CmpLt:
		if a.Hi < b.Lo {
			return tt
		}
		if a.Lo >= b.Hi {
			return ff
		}
	case ir.CmpLe:
		if a.Hi <= b.Lo {
			return tt
		}
		if a.Lo > b.Hi {
			return ff
		}
	case ir.CmpGt:
		if a.Lo > b.Hi {
			return tt
		}
		if a.Hi <= b.Lo {
			return ff
		}
	case ir.CmpGe:
		if a.Lo >= b.Hi {
			return tt
		}
		if a.Hi < b.Lo {
			return ff
		}
	}
	return unknown
}

// castIv is the transfer function of OpCast: the engines mask integer
// targets to their width.
func castIv(to ir.Type, a Interval) Interval {
	if !intLike(to) {
		return TopInterval()
	}
	w := to.(*ir.ScalarType).Bits()
	if w >= 64 {
		return a
	}
	mask := uint64(1)<<uint(w) - 1
	if a.Hi <= mask {
		return a
	}
	return Interval{0, mask}
}

// CondFact records one branch condition with its proven interval.
type CondFact struct {
	Cond *ir.Value
	Iv   Interval
	Pos  int
	// Loop marks a do-while continuation condition (vs an if).
	Loop bool
}

// SiteSummary is the per-allocation-site key/element range summary for
// one associative (set/map) allocation.
type SiteSummary struct {
	Alloc *ir.Instr
	// Keys over-approximates every key ever inserted at the site;
	// Elems every element value ever written. Meaningless when
	// AddPoints is 0 (nothing is ever inserted).
	Keys, Elems Interval
	// AddPoints counts the key-adding operations (inserts and incoming
	// unions) on any SSA state of the site.
	AddPoints int
	// Exact is true when every flow into the collection was tracked:
	// the site never escapes into calls, returns, other collections or
	// untracked aliases. Only exact summaries may be used for proofs.
	Exact bool

	hasKeys, hasElems bool
}

// KeyRange returns the joined interval of every key ever inserted at
// the site and whether any insert was seen at all. The interval is
// meaningful only for exact summaries (see Exact).
func (s *SiteSummary) KeyRange() (Interval, bool) { return s.Keys, s.hasKeys }

func (s *SiteSummary) joinKeys(iv Interval) {
	if s.hasKeys {
		s.Keys = joinIv(s.Keys, iv)
	} else {
		s.Keys, s.hasKeys = iv, true
	}
}

func (s *SiteSummary) joinElems(iv Interval) {
	if s.hasElems {
		s.Elems = joinIv(s.Elems, iv)
	} else {
		s.Elems, s.hasElems = iv, true
	}
}

type valIv struct {
	v  *ir.Value
	iv Interval
}

// factSpan locates one instruction's recorded facts in
// FuncIntervals.facts.
type factSpan struct{ lo, hi int32 }

// FuncIntervals holds the interval facts of one function, queryable at
// instruction granularity (facts are flow-sensitive: branch-condition
// refinement can make a value's range at a use tighter than at its
// definition).
type FuncIntervals struct {
	Fn *ir.Func

	atUse   map[*ir.Instr]factSpan
	facts   []valIv // non-top operand/result facts, grouped by instruction
	conds   []CondFact
	binds   map[*ir.ForEach][2]Interval // evaluated key/val binding ranges
	sites   map[*ir.Instr]*SiteSummary
	origin  map[*ir.Value]*ir.Instr // collection state -> owning allocation
	ret     Interval
	retSeen bool
}

// ValueAt returns the interval of v at instruction in (top when the
// pass proved nothing, or the instruction is unreachable).
func (fi *FuncIntervals) ValueAt(in *ir.Instr, v *ir.Value) Interval {
	if sp, ok := fi.atUse[in]; ok {
		for _, e := range fi.facts[sp.lo:sp.hi] {
			if e.v == v {
				return e.iv
			}
		}
	}
	if v != nil && v.Kind == ir.VConst {
		if iv, ok := constIv(v); ok {
			return iv
		}
	}
	return TopInterval()
}

// Conds returns every reached branch condition with its interval.
func (fi *FuncIntervals) Conds() []CondFact { return fi.conds }

// LoopBind returns the proven ranges of a for-each loop's key and
// value bindings.
func (fi *FuncIntervals) LoopBind(fe *ir.ForEach) (key, val Interval) {
	if kv, ok := fi.binds[fe]; ok {
		return kv[0], kv[1]
	}
	return TopInterval(), TopInterval()
}

// Site returns the key/element summary of an allocation, or nil for
// non-associative or untracked allocations.
func (fi *FuncIntervals) Site(alloc *ir.Instr) *SiteSummary { return fi.sites[alloc] }

// OriginOf returns the allocation owning a collection-typed SSA state,
// or nil when the state is not rooted in a tracked local allocation.
func (fi *FuncIntervals) OriginOf(v *ir.Value) *ir.Instr { return fi.origin[v] }

// Intervals is the whole-program result of the abstract
// interpretation.
type Intervals struct {
	funcs map[*ir.Func]*FuncIntervals
}

// Func returns the facts for fn (never nil for program functions).
func (ivs *Intervals) Func(fn *ir.Func) *FuncIntervals {
	if fi, ok := ivs.funcs[fn]; ok {
		return fi
	}
	return &FuncIntervals{Fn: fn}
}

// progState carries the cross-function and cross-round summaries.
type progState struct {
	rets  map[string]Interval
	binds map[*ir.ForEach][2]Interval
}

// analysisRounds bounds the whole-program summary iterations (round 1
// runs with top summaries; later rounds consume the previous round's
// site and return summaries).
const analysisRounds = 3

// IntervalsOf runs the interval/constant abstract interpretation over
// every function of p.
func IntervalsOf(p *ir.Program) *Intervals { return IntervalsWithUses(p, nil) }

// IntervalsWithUses is IntervalsOf for a caller that already holds the
// def-use chains of p's functions: uses returns fn's chains, or nil to
// have them computed. The chains must describe the program as it is
// now.
func IntervalsWithUses(p *ir.Program, uses func(*ir.Func) *ir.UseInfo) *Intervals {
	st := &progState{rets: map[string]Interval{}, binds: map[*ir.ForEach][2]Interval{}}
	solvers := make([]*ivSolver, len(p.Order))
	for i, name := range p.Order {
		fn := p.Funcs[name]
		var ui *ir.UseInfo
		if uses != nil {
			ui = uses(fn)
		}
		if ui == nil {
			ui = ir.ComputeUses(fn)
		}
		solvers[i] = newIvSolver(fn, ui)
	}
	out := &Intervals{funcs: make(map[*ir.Func]*FuncIntervals, len(solvers))}
	for round := 0; round < analysisRounds; round++ {
		// Every summary key is written once per round, so a round that
		// changes no write ends in the state it started from, and the
		// next round would recompute the same facts.
		changed := false
		for _, s := range solvers {
			fi := s.run(st)
			out.funcs[s.fn] = fi
			if st.updateRet(fi) {
				changed = true
			}
			if st.updateBinds(fi) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return out
}

// updateRet publishes fi's return summary and reports whether it
// changed.
func (st *progState) updateRet(fi *FuncIntervals) bool {
	old, had := st.rets[fi.Fn.Name]
	if !fi.retSeen {
		delete(st.rets, fi.Fn.Name)
		return had
	}
	st.rets[fi.Fn.Name] = fi.ret
	return !had || old != fi.ret
}

// updateBinds publishes the key/val binding summary each for-each
// loop of fi should use next round, from the just-derived site
// summaries, and reports whether any changed.
func (st *progState) updateBinds(fi *FuncIntervals) bool {
	changed := false
	ir.WalkNodes(fi.Fn.Body, func(n ir.Node) {
		fe, ok := n.(*ir.ForEach)
		if !ok || len(fe.Coll.Path) != 0 || fe.Coll.Base == nil {
			return
		}
		alloc := fi.origin[fe.Coll.Base]
		if alloc == nil {
			return
		}
		s := fi.sites[alloc]
		if s == nil || !s.Exact || s.AddPoints == 0 {
			return
		}
		key := s.Keys
		val := s.Elems
		if ct := ir.AsColl(alloc.Alloc); ct != nil && ct.Kind == ir.KSet {
			val = key // set iteration binds the element to both
		}
		kv := [2]Interval{key, val}
		if old, ok := st.binds[fe]; !ok || old != kv {
			st.binds[fe] = kv
			changed = true
		}
	})
	return changed
}

// ---------------------------------------------------------------
// Per-function solver.

const (
	widenAfter      = 3 // In-fact changes at one block before widening
	narrowingPasses = 2
)

// ivSolver holds one function's CFG, fact index and fact buffers,
// shared by every whole-program round.
type ivSolver struct {
	fn *ir.Func
	c  *CFG
	ui *ir.UseInfo
	ix ivIndex

	// in/out[b] is nil while block b is unreachable, else inBuf/outBuf[b].
	in, out       []ivFact
	inBuf, outBuf []ivFact
	edge          ivFact     // edgeFact's result
	phiVals       []Interval // edgeFact's parallel phi copy
	bumps         []int
	work          []int
	inWork        []bool
	seen          []*ir.Value // values recorded for the current instruction

	st  *progState
	fi  *FuncIntervals
	rec bool // final sweep: record per-instruction facts
}

func newIvSolver(fn *ir.Func, ui *ir.UseInfo) *ivSolver {
	c := NewCFG(fn)
	ix := ivIndex{}
	add := func(v *ir.Value) {
		if v == nil || v.Kind == ir.VConst || !intLike(v.Type) {
			return
		}
		if _, ok := ix[v]; !ok {
			ix[v] = int32(len(ix))
		}
	}
	for _, v := range fn.Params {
		add(v)
	}
	var vals []*ir.Value
	for _, b := range c.Blocks {
		for _, ph := range b.Phis {
			for _, r := range ph.Results {
				add(r)
			}
		}
		for _, step := range b.Steps {
			vals = step.Defs(vals[:0])
			for _, v := range vals {
				add(v)
			}
		}
	}

	nb, n := len(c.Blocks), len(ix)
	store := make([]Interval, (2*nb+1)*n)
	slot := func(i int) ivFact { return store[i*n : (i+1)*n : (i+1)*n] }
	s := &ivSolver{
		fn: fn, c: c, ui: ui, ix: ix,
		in:     make([]ivFact, nb),
		out:    make([]ivFact, nb),
		inBuf:  make([]ivFact, nb),
		outBuf: make([]ivFact, nb),
		edge:   slot(2 * nb),
		bumps:  make([]int, nb),
		inWork: make([]bool, nb),
	}
	for i := 0; i < nb; i++ {
		s.inBuf[i], s.outBuf[i] = slot(i), slot(nb+i)
	}
	return s
}

// run analyses the function under the summaries in st.
func (s *ivSolver) run(st *progState) *FuncIntervals {
	for i := range s.in {
		s.in[i], s.out[i], s.bumps[i] = nil, nil, 0
	}
	s.st = st
	s.fi = &FuncIntervals{
		Fn:    s.fn,
		atUse: map[*ir.Instr]factSpan{},
		binds: map[*ir.ForEach][2]Interval{},
	}
	s.rec = false
	s.ascend()
	for i := 0; i < narrowingPasses; i++ {
		s.sweep()
	}
	s.rec = true
	s.sweep()
	deriveSites(s.fi, s.ui)
	return s.fi
}

// topIn marks block id reachable with an all-top in-fact.
func (s *ivSolver) topIn(id int) {
	f := s.inBuf[id]
	for i := range f {
		f[i] = TopInterval()
	}
	s.in[id] = f
}

// transferOut recomputes block b's out-fact from its in-fact.
func (s *ivSolver) transferOut(b *Block) {
	in := s.in[b.ID]
	if in == nil {
		s.out[b.ID] = nil
		return
	}
	out := s.outBuf[b.ID]
	copy(out, in)
	s.transferBlock(b, out)
	s.out[b.ID] = out
}

// ascend runs the widening worklist pass to a post-fixpoint.
func (s *ivSolver) ascend() {
	entry := s.c.Entry
	s.topIn(entry)
	work := append(s.work[:0], entry)
	s.inWork[entry] = true
	for head := 0; head < len(work); head++ {
		id := work[head]
		s.inWork[id] = false
		b := s.c.Blocks[id]
		s.transferOut(b)
		for k, sid := range b.Succs {
			ef := s.edgeFact(b, k, sid)
			if ef == nil {
				continue
			}
			changed := true
			if s.in[sid] == nil {
				s.in[sid] = s.inBuf[sid]
				copy(s.in[sid], ef)
			} else {
				changed = s.joinInto(sid, ef)
			}
			if changed && !s.inWork[sid] {
				work = append(work, sid)
				s.inWork[sid] = true
			}
		}
	}
	s.work = work
}

// joinInto joins src into In[id], widening after repeated growth.
func (s *ivSolver) joinInto(id int, src ivFact) bool {
	dst := s.in[id]
	widen := s.bumps[id] >= widenAfter
	changed := false
	for i, d := range dst {
		j := joinIv(d, src[i])
		if j == d {
			continue
		}
		changed = true
		if widen {
			dst[i] = TopInterval()
		} else {
			dst[i] = j
		}
	}
	if changed {
		s.bumps[id]++
	}
	return changed
}

// sweep re-evaluates every block in order with fresh edge joins and no
// widening, descending toward the exact fixpoint. On the recording
// pass it captures per-instruction facts.
func (s *ivSolver) sweep() {
	for _, b := range s.c.Blocks {
		if b.ID != s.c.Entry {
			var in ivFact
			for _, pid := range b.Preds {
				if s.out[pid] == nil {
					continue
				}
				k := edgeIndex(s.c.Blocks[pid].Succs, b.ID)
				ef := s.edgeFact(s.c.Blocks[pid], k, b.ID)
				if ef == nil {
					continue
				}
				if in == nil {
					in = s.inBuf[b.ID]
					copy(in, ef)
				} else {
					for i, d := range in {
						in[i] = joinIv(d, ef[i])
					}
				}
			}
			s.in[b.ID] = in
		} else if s.in[b.ID] == nil {
			s.topIn(b.ID)
		}
		s.transferOut(b)
	}
}

// edgeFact computes the fact flowing from block b along its k-th
// successor edge into block sid: branch-condition refinement, then the
// positional phi assignments. The result lives in s.edge until the
// next call. Returns nil when the edge is proven dead.
func (s *ivSolver) edgeFact(b *Block, k int, sid int) ivFact {
	if s.out[b.ID] == nil {
		return nil
	}
	f := s.edge
	copy(f, s.out[b.ID])
	// Condition refinement: a block ending in a StepCond branches to
	// Succs[0] when true, Succs[1] when false.
	if n := len(b.Steps); n > 0 && b.Steps[n-1].Kind == StepCond && len(b.Succs) == 2 {
		if !s.ix.refineCond(f, b.Steps[n-1].Cond, k == 0) {
			return nil
		}
	}
	succ := s.c.Blocks[sid]
	j := edgeIndex(succ.Preds, b.ID)
	if j < 0 || len(succ.Phis) == 0 {
		return f
	}
	// Phis are a parallel copy: evaluate all arguments first.
	vals := s.phiVals[:0]
	for _, ph := range succ.Phis {
		iv := TopInterval()
		if j < len(ph.Args) {
			iv = s.ix.eval(f, ph.Args[j].Base)
		}
		vals = append(vals, iv)
	}
	s.phiVals = vals
	for i, ph := range succ.Phis {
		if r := ph.Result(); r != nil {
			s.ix.set(f, r, vals[i])
		}
	}
	return f
}

// refineCond narrows f in place under the assumption that cond
// evaluates to truth. It reports false when the assumption contradicts
// the known range (the edge is dead).
func (x ivIndex) refineCond(f ivFact, cond *ir.Value, truth bool) bool {
	if cond == nil {
		return true
	}
	want := Interval{0, 0}
	if truth {
		want = Interval{1, 1}
	}
	m, ok := meetIv(x.eval(f, cond), want)
	if !ok {
		return false
	}
	if cond.Kind != ir.VConst {
		x.set(f, cond, m)
	}
	d := cond.Def
	if d == nil {
		return true
	}
	switch d.Op {
	case ir.OpNot:
		if len(d.Args) == 1 {
			return x.refineCond(f, d.Args[0].Base, !truth)
		}
	case ir.OpCmp:
		if len(d.Args) == 2 && len(d.Args[0].Path) == 0 && len(d.Args[1].Path) == 0 {
			return x.refineCmp(f, d, truth)
		}
	}
	return true
}

// refineCmp narrows the operands of a comparison known to evaluate to
// truth, reporting false when no operand values satisfy it.
func (x ivIndex) refineCmp(f ivFact, d *ir.Instr, truth bool) bool {
	av, bv := d.Args[0].Base, d.Args[1].Base
	if av == nil || bv == nil {
		return true
	}
	a, b := x.eval(f, av), x.eval(f, bv)
	kind := d.Cmp
	if !truth {
		switch kind {
		case ir.CmpEq:
			kind = ir.CmpNe
		case ir.CmpNe:
			kind = ir.CmpEq
		case ir.CmpLt:
			kind = ir.CmpGe
		case ir.CmpLe:
			kind = ir.CmpGt
		case ir.CmpGt:
			kind = ir.CmpLe
		case ir.CmpGe:
			kind = ir.CmpLt
		}
	}
	if kind != ir.CmpEq && kind != ir.CmpNe && !unsignedOrder(av.Type, a, b) {
		return true
	}
	na, nb, ok := a, b, true
	switch kind {
	case ir.CmpEq:
		m, mok := meetIv(a, b)
		na, nb, ok = m, m, mok
	case ir.CmpNe:
		na, nb = shaveNe(a, b), shaveNe(b, a)
	case ir.CmpLt:
		if b.Hi == 0 || a.Lo == maxU64 {
			return false
		}
		na, ok = meetIv(a, Interval{0, b.Hi - 1})
		if ok {
			nb, ok = meetIv(b, Interval{a.Lo + 1, maxU64})
		}
	case ir.CmpLe:
		na, ok = meetIv(a, Interval{0, b.Hi})
		if ok {
			nb, ok = meetIv(b, Interval{a.Lo, maxU64})
		}
	case ir.CmpGt:
		if a.Hi == 0 || b.Lo == maxU64 {
			return false
		}
		nb, ok = meetIv(b, Interval{0, a.Hi - 1})
		if ok {
			na, ok = meetIv(a, Interval{b.Lo + 1, maxU64})
		}
	case ir.CmpGe:
		nb, ok = meetIv(b, Interval{0, a.Hi})
		if ok {
			na, ok = meetIv(a, Interval{b.Lo, maxU64})
		}
	}
	if !ok {
		return false
	}
	if av.Kind != ir.VConst {
		x.set(f, av, na)
	}
	if bv.Kind != ir.VConst {
		x.set(f, bv, nb)
	}
	return true
}

// shaveNe tightens a under a != b: when b is a constant sitting on one
// of a's bounds, the bound moves inward.
func shaveNe(a, b Interval) Interval {
	c, ok := b.Const()
	if !ok {
		return a
	}
	if a.Lo == c && a.Lo < maxU64 && a.Lo < a.Hi {
		a.Lo++
	}
	if a.Hi == c && a.Hi > 0 && a.Lo < a.Hi {
		a.Hi--
	}
	return a
}

// transferBlock applies the block's steps to f in place, recording
// facts when s.rec is set.
func (s *ivSolver) transferBlock(b *Block, f ivFact) {
	for _, step := range b.Steps {
		switch step.Kind {
		case StepInstr:
			s.transferInstr(step.Instr, f)
		case StepBind:
			fe := step.Loop
			key, val := TopInterval(), TopInterval()
			if kv, ok := s.st.binds[fe]; ok {
				key, val = kv[0], kv[1]
			}
			if fe.Key != nil {
				s.ix.set(f, fe.Key, key)
			}
			if fe.Val != nil {
				s.ix.set(f, fe.Val, val)
			}
			if s.rec {
				s.fi.binds[fe] = [2]Interval{key, val}
			}
		case StepCond:
			if s.rec {
				loop := len(b.Succs) == 2 && b.Succs[0] <= b.ID
				s.fi.conds = append(s.fi.conds, CondFact{
					Cond: step.Cond, Iv: s.ix.eval(f, step.Cond), Pos: step.Pos, Loop: loop,
				})
			}
		}
	}
}

// record appends v's interval in f to the facts of the instruction
// being recorded, once per value and only when it is tighter than top.
func (s *ivSolver) record(v *ir.Value, f ivFact) {
	if v == nil || v.Kind == ir.VConst {
		return
	}
	for _, u := range s.seen {
		if u == v {
			return
		}
	}
	s.seen = append(s.seen, v)
	if iv := s.ix.eval(f, v); !iv.IsTop() {
		s.fi.facts = append(s.fi.facts, valIv{v, iv})
	}
}

func (s *ivSolver) transferInstr(in *ir.Instr, f ivFact) {
	lo := len(s.fi.facts)
	if s.rec {
		s.seen = s.seen[:0]
		for _, a := range in.Args {
			s.record(a.Base, f)
			for _, ix := range a.Path {
				if ix.Kind == ir.IdxValue {
					s.record(ix.Val, f)
				}
			}
		}
	}

	arg := func(i int) Interval {
		if i >= len(in.Args) {
			return TopInterval()
		}
		return s.ix.eval(f, in.Args[i].Base)
	}
	set := func(v *ir.Value, iv Interval) { s.ix.set(f, v, iv) }
	r := in.Result()
	switch in.Op {
	case ir.OpBin:
		if r != nil && len(in.Args) == 2 && in.Args[0].Base != nil {
			set(r, binIv(in.Bin, in.Args[0].Base.Type, arg(0), arg(1)))
		}
	case ir.OpCmp:
		if r != nil && len(in.Args) == 2 && in.Args[0].Base != nil {
			set(r, cmpIv(in.Cmp, in.Args[0].Base.Type, arg(0), arg(1)))
		}
	case ir.OpNot:
		if r != nil {
			x := arg(0)
			switch {
			case x.Hi == 0:
				set(r, Interval{1, 1})
			case x.Lo >= 1 && x.Hi <= 1:
				set(r, Interval{0, 0})
			default:
				set(r, Interval{0, 1})
			}
		}
	case ir.OpSelect:
		if r != nil && len(in.Args) == 3 {
			cond := arg(0)
			switch {
			case cond.Lo >= 1:
				set(r, arg(1))
			case cond.Hi == 0:
				set(r, arg(2))
			default:
				set(r, joinIv(arg(1), arg(2)))
			}
		}
	case ir.OpCast:
		if r != nil {
			src := TopInterval()
			if len(in.Args) == 1 && in.Args[0].Base != nil && !isFloatType(in.Args[0].Base.Type) {
				src = arg(0)
			}
			set(r, castIv(in.CastTo, src))
		}
	case ir.OpHas:
		if r != nil {
			set(r, Interval{0, 1})
		}
	case ir.OpCall:
		if r != nil {
			if iv, ok := s.st.rets[in.Callee]; ok {
				set(r, iv)
			} else {
				set(r, TopInterval())
			}
		}
	case ir.OpRet:
		if len(in.Args) == 1 && s.rec {
			if s.fi.retSeen {
				s.fi.ret = joinIv(s.fi.ret, arg(0))
			} else {
				s.fi.ret, s.fi.retSeen = arg(0), true
			}
		}
	default:
		// Unmodelled producers (reads, sizes, enum ops, tuples, ...)
		// yield top.
		for _, res := range in.Results {
			set(res, TopInterval())
		}
	}

	if s.rec {
		for _, res := range in.Results {
			s.record(res, f)
		}
		if hi := len(s.fi.facts); hi > lo {
			s.fi.atUse[in] = factSpan{int32(lo), int32(hi)}
		}
	}
}

func isFloatType(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	return ok && (st.Kind == ir.F32 || st.Kind == ir.F64)
}

// ---------------------------------------------------------------
// Allocation-site summaries.

// deriveSites computes the key/element summaries of every associative
// depth-0 allocation in fi.Fn from the recorded per-instruction facts,
// classifying every use of every SSA state of the site. Unknown flows
// mark the summary inexact.
func deriveSites(fi *FuncIntervals, ui *ir.UseInfo) {
	fi.origin = map[*ir.Value]*ir.Instr{}
	fi.sites = map[*ir.Instr]*SiteSummary{}
	conflicted := map[*ir.Instr]bool{}

	var allocs []*ir.Instr
	ir.WalkInstrs(fi.Fn, func(in *ir.Instr) {
		if in.Op != ir.OpNew || in.Alloc == nil || !in.Alloc.Assoc() {
			return
		}
		allocs = append(allocs, in)
	})
	for _, alloc := range allocs {
		for _, v := range ui.Redefs(alloc) {
			if prev, dup := fi.origin[v]; dup && prev != alloc {
				// A phi merged two different allocations: neither site
				// can be summarized exactly.
				conflicted[prev] = true
				conflicted[alloc] = true
				continue
			}
			fi.origin[v] = alloc
		}
	}

	type unionEdge struct{ dst, src *ir.Instr }
	var unions []unionEdge
	for _, alloc := range allocs {
		s := &SiteSummary{Alloc: alloc, Exact: !conflicted[alloc]}
		fi.sites[alloc] = s
		for _, v := range ui.Redefs(alloc) {
			if fi.origin[v] != alloc {
				continue
			}
			for _, u := range ui.Uses(v) {
				if !classifySiteUse(fi, s, u, func(src *ir.Instr) {
					unions = append(unions, unionEdge{alloc, src})
				}) {
					s.Exact = false
				}
			}
		}
	}
	// Propagate union edges to a joint fixpoint (monotone joins over a
	// finite site set).
	for changed := true; changed; {
		changed = false
		for _, e := range unions {
			dst := fi.sites[e.dst]
			if e.src == nil {
				continue // already marked inexact at classification
			}
			src := fi.sites[e.src]
			if src == nil {
				continue
			}
			if !src.Exact && dst.Exact {
				dst.Exact = false
				changed = true
			}
			if src.AddPoints > 0 {
				ok, oe := dst.Keys, dst.Elems
				okh, oeh := dst.hasKeys, dst.hasElems
				if src.hasKeys {
					dst.joinKeys(src.Keys)
				}
				if src.hasElems {
					dst.joinElems(src.Elems)
				}
				if dst.Keys != ok || dst.Elems != oe || dst.hasKeys != okh || dst.hasElems != oeh {
					changed = true
				}
			}
		}
	}
}

// classifySiteUse folds one use of one SSA state of a site into its
// summary. It reports false when the use is an untracked flow (the
// summary must become inexact).
func classifySiteUse(fi *FuncIntervals, s *SiteSummary, u ir.Use, onUnion func(src *ir.Instr)) bool {
	if u.Path >= 0 {
		return false // collection used as an index: untracked
	}
	in := u.Instr
	if in == nil {
		// Structural use: the for-each collection read is read-only.
		return u.Arg == ir.UseLoopColl
	}
	switch in.Op {
	case ir.OpRead, ir.OpHas, ir.OpSize, ir.OpRemove, ir.OpClear:
		return u.Arg == 0
	case ir.OpPhi:
		return true // state merge, tracked by origin assignment
	case ir.OpWrite:
		if u.Arg != 0 {
			return false
		}
		if len(in.Args[0].Path) == 0 && len(in.Args) == 3 {
			// write(s, k, v): overwrites an existing key's element.
			s.joinElems(fi.ValueAt(in, in.Args[2].Base))
		}
		return true
	case ir.OpInsert:
		if u.Arg != 0 {
			return false
		}
		if len(in.Args[0].Path) == 0 {
			// insert(s, k) on a set/map at the root level adds a key
			// (map inserts bind the zero element).
			if len(in.Args) != 2 {
				return false // unexpected arity on an assoc site
			}
			s.joinKeys(fi.ValueAt(in, in.Args[1].Base))
			if s.Alloc.Alloc.Kind == ir.KMap {
				s.joinElems(Interval{0, 0})
			}
			s.AddPoints++
		}
		return true
	case ir.OpUnion:
		if len(in.Args) != 2 {
			return false
		}
		switch u.Arg {
		case 0:
			if len(in.Args[0].Path) != 0 {
				return true // union into a nested level: outer keys unchanged
			}
			// union(dst, src) adds every key of src.
			src := in.Args[1].Base
			srcAlloc := fi.origin[src]
			if srcAlloc == nil {
				return false
			}
			s.AddPoints++
			onUnion(srcAlloc)
			return true
		case 1:
			return true // being the source of a union is a read
		}
		return false
	}
	// Call arguments, returns, emits, selects, tuple packing, compare,
	// value positions of writes/inserts into other collections, ...:
	// the collection escapes the tracked flows.
	return false
}
