package interp

import (
	"context"
	"fmt"
	"time"

	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// Options configures an execution.
type Options struct {
	// DefaultSet and DefaultMap choose the implementation for
	// unselected collection types. The paper's baseline is
	// Hash{Set,Map}; RQ5 switches the default to Swiss{Set,Map}.
	DefaultSet collections.Impl
	DefaultMap collections.Impl

	// MaxSteps aborts runaway programs (0 = no limit). Exhaustion
	// returns a *LimitError wrapping ErrStepBudget.
	MaxSteps uint64

	// MaxBytes aborts the run once the sampled live footprint exceeds
	// this many bytes (0 = no limit). Detection happens at the next
	// footprint sample after the budget is crossed (see
	// MemSampleEvery), and the abort surfaces at the next step
	// checkpoint — the same dynamic point on both engines, so partial
	// Stats and telemetry stay engine-identical. Returns a *LimitError
	// wrapping ErrMemBudget.
	MaxBytes int64

	// Context, when non-nil, is polled at deterministic step
	// checkpoints; cancellation or deadline expiry aborts the run with
	// a *LimitError wrapping ErrDeadline. The polling points are
	// engine-identical, but which poll observes an expired wall-clock
	// deadline is inherently timing-dependent.
	Context context.Context

	// Faults, when non-nil, drives deterministic runtime fault
	// injection (fail the Nth collection allocation, corrupt the Nth
	// enumeration add). Each injector is single-run state: never share
	// one across executions.
	Faults *faults.Injector

	// MemSampleEvery recomputes the live footprint every N growth
	// operations; lower is more precise, higher is faster.
	MemSampleEvery int

	// RecordOutput retains emitted values in order (for debugging) in
	// addition to the order-insensitive checksum.
	RecordOutput bool

	// TrackReads records every non-constant SSA value the interpreter
	// reads. The dataflow property tests use it as runtime ground
	// truth: a value liveness declares dead must never appear here.
	TrackReads bool

	// Telemetry, when non-nil, records per-collection-site operation
	// histograms, occupancy samples, and enumeration translation
	// counts. It never touches Stats, so enabling it cannot perturb
	// the op-count measurements.
	Telemetry *telemetry.Recorder
}

// DefaultOptions returns the baseline MEMOIR configuration.
func DefaultOptions() Options {
	return Options{
		DefaultSet:     collections.ImplHashSet,
		DefaultMap:     collections.ImplHashMap,
		MemSampleEvery: 512,
	}
}

// Interp executes a MEMOIR program.
type Interp struct {
	Prog  *ir.Program
	Stats *Stats
	opts  Options

	// Enumeration globals created by ADE's interprocedural stage: one
	// per enumeration equivalence class (§III-F).
	globals map[string]*Enum

	live        []interface{ Bytes() int64 }
	untilSample int

	// limited is true when any interruption source (step budget,
	// memory budget, context) is configured; the dispatch fast path
	// checks this single bool before the full interruption test.
	limited bool

	// stop holds a pending memory-budget violation detected during a
	// footprint sample; it surfaces at the next step checkpoint so
	// both engines abort at the same dynamic point.
	stop *LimitError

	// Iteration-local allocations (a fresh collection per loop
	// iteration that is never carried across iterations) occupy one
	// registry slot that each new instance replaces — modeling the
	// allocator reclaiming the dead instance, so peak memory is not
	// the sum of every instance ever created.
	iterLocal map[*ir.Instr]bool
	localSlot map[*ir.Instr]int

	// reads is non-nil when TrackReads is set.
	reads map[*ir.Value]bool

	// tele is non-nil when Options.Telemetry is set; allocOrds caches
	// per-function allocation ordinals for site keys.
	tele      *telemetry.Recorder
	allocOrds map[*ir.Func]map[*ir.Instr]int

	slotCache map[*ir.Func]int

	// Output holds emitted values when RecordOutput is set.
	Output []Val

	// ROI marker state: a stats snapshot and timestamp taken at the
	// roi instruction, so the harness can split initialization from
	// the region of interest.
	ROISnapshot *Stats
	ROIStart    time.Time
}

// MarkROI snapshots the stats and wall clock; called by the roi op.
func (ip *Interp) MarkROI() {
	snap := *ip.Stats
	ip.ROISnapshot = &snap
	ip.ROIStart = time.Now()
}

// ROIStats returns the kernel-only stats (total minus the snapshot at
// the roi marker); when no marker ran it returns the full stats.
func (ip *Interp) ROIStats() *Stats {
	if ip.ROISnapshot == nil {
		return ip.Stats
	}
	return ROIDelta(ip.Stats, ip.ROISnapshot)
}

// ROIDelta subtracts the roi-marker snapshot from the total stats,
// leaving the kernel-only flow quantities; the peak-memory model stays
// global because memory allocated before the marker is still resident
// in the region of interest. Shared by both execution engines.
func ROIDelta(total, snap *Stats) *Stats {
	out := &Stats{}
	for i := range out.Counts {
		for k := range out.Counts[i] {
			out.Counts[i][k] = total.Counts[i][k] - snap.Counts[i][k]
		}
	}
	out.Sparse = total.Sparse - snap.Sparse
	out.Dense = total.Dense - snap.Dense
	out.Steps = total.Steps - snap.Steps
	out.PeakBytes = total.PeakBytes
	out.EmitCount = total.EmitCount - snap.EmitCount
	out.EmitSum = total.EmitSum - snap.EmitSum
	return out
}

// New returns an interpreter for prog.
func New(prog *ir.Program, opts Options) *Interp {
	if opts.MemSampleEvery <= 0 {
		opts.MemSampleEvery = 512
	}
	if opts.DefaultSet == collections.ImplNone {
		opts.DefaultSet = collections.ImplHashSet
	}
	if opts.DefaultMap == collections.ImplNone {
		opts.DefaultMap = collections.ImplHashMap
	}
	ip := &Interp{
		Prog:        prog,
		Stats:       &Stats{},
		opts:        opts,
		globals:     map[string]*Enum{},
		untilSample: opts.MemSampleEvery,
		slotCache:   map[*ir.Func]int{},
		iterLocal:   map[*ir.Instr]bool{},
		localSlot:   map[*ir.Instr]int{},
	}
	ip.limited = opts.MaxSteps > 0 || opts.MaxBytes > 0 || opts.Context != nil
	if opts.TrackReads {
		ip.reads = map[*ir.Value]bool{}
	}
	if opts.Telemetry != nil {
		ip.tele = opts.Telemetry
		ip.allocOrds = map[*ir.Func]map[*ir.Instr]int{}
	}
	return ip
}

// tcoll forwards one collection operation to the telemetry recorder.
func (ip *Interp) tcoll(c Coll, k OpKind, n uint64) {
	if ip.tele != nil {
		ip.tele.CollOp(c, int(k), n)
	}
}

// allocKey returns the stable telemetry site key of allocation in.
func (ip *Interp) allocKey(fn *ir.Func, in *ir.Instr) telemetry.SiteKey {
	ords, ok := ip.allocOrds[fn]
	if !ok {
		ords = telemetry.AllocOrdinals(fn)
		ip.allocOrds[fn] = ords
	}
	return telemetry.SiteKey{Fn: fn.Name, Alloc: ords[in]}
}

// ResetStats installs a fresh Stats (used to separate initialization
// from the region of interest); the live-set memory model carries
// over so peaks remain global unless the caller resets them too.
func (ip *Interp) ResetStats() *Stats {
	old := ip.Stats
	ip.Stats = &Stats{CurBytes: old.CurBytes, PeakBytes: old.CurBytes}
	return old
}

// Global returns the enumeration global named name, creating it on
// first use.
func (ip *Interp) Global(name string) *Enum {
	e, ok := ip.globals[name]
	if !ok {
		e = NewEnum()
		ip.globals[name] = e
		ip.register(e)
		if ip.tele != nil {
			ip.tele.TrackEnum(e, name)
		}
	}
	return e
}

func (ip *Interp) register(c interface{ Bytes() int64 }) {
	ip.live = append(ip.live, c)
	ip.grew()
}

// grew counts one growth event, sampling the footprint every
// MemSampleEvery-th event (a countdown instead of a modulo: same
// sample schedule, no integer division on the mutation fast path).
func (ip *Interp) grew() {
	ip.untilSample--
	if ip.untilSample <= 0 {
		ip.untilSample = ip.opts.MemSampleEvery
		ip.sampleMem()
	}
}

func (ip *Interp) sampleMem() {
	var total int64
	for _, c := range ip.live {
		total += c.Bytes()
	}
	ip.Stats.CurBytes = total
	if total > ip.Stats.PeakBytes {
		ip.Stats.PeakBytes = total
	}
	if ip.opts.MaxBytes > 0 && total > ip.opts.MaxBytes && ip.stop == nil {
		ip.stop = &LimitError{Kind: ErrMemBudget, Bytes: total}
	}
}

// FinalizeMem folds a final footprint sample into the stats.
func (ip *Interp) FinalizeMem() { ip.sampleMem() }

// CountIterSetup accounts the per-word scan cost of starting an
// iteration over a bit-structured collection — such sets pay per word
// scanned, not per element: a dense enumerated set iterates at ~1 word
// per 64 elements, while a sparsely-populated one (the RQ4 hazard)
// scans many empty words per element. Shared by both execution
// engines so their op counts agree exactly. rec may be nil; when set,
// the word scans are also attributed to the collection's site.
func CountIterSetup(st *Stats, rec *telemetry.Recorder, c Coll) {
	switch c := c.(type) {
	case *RSetBits:
		n := uint64(len(c.S.Words()))
		st.Count(collections.ImplBitSet, OKIterWord, n)
		if rec != nil {
			rec.CollOp(c, telemetry.OpIterWord, n)
		}
	case *RMapBit:
		n := uint64(len(c.Words()))
		st.Count(collections.ImplBitMap, OKIterWord, n)
		if rec != nil {
			rec.CollOp(c, telemetry.OpIterWord, n)
		}
	}
}

type execErr struct {
	fn  string
	msg string
}

func (e *execErr) Error() string { return "@" + e.fn + ": " + e.msg }

func (ip *Interp) errf(fn *ir.Func, format string, args ...any) error {
	return &execErr{fn: fn.Name, msg: fmt.Sprintf(format, args...)}
}

// interrupted runs the full interruption test at a step checkpoint.
// The order is fixed and shared with the VM — step budget, then any
// pending memory-budget stop, then the context — so both engines
// report the same error kind with the same partial Stats when several
// limits trip at once. The context is polled only when
// Steps&1023 == 1: a cheap deterministic schedule that still fires on
// the very first step for already-cancelled contexts.
func (ip *Interp) interrupted(fn *ir.Func) error {
	if ip.opts.MaxSteps > 0 && ip.Stats.Steps > ip.opts.MaxSteps {
		return &LimitError{Kind: ErrStepBudget, Fn: fn.Name, Steps: ip.Stats.Steps}
	}
	if ip.stop != nil {
		le := *ip.stop
		le.Fn = fn.Name
		le.Steps = ip.Stats.Steps
		return &le
	}
	if ip.opts.Context != nil && ip.Stats.Steps&1023 == 1 && ip.opts.Context.Err() != nil {
		return &LimitError{Kind: ErrDeadline, Fn: fn.Name, Steps: ip.Stats.Steps}
	}
	return nil
}

// Run executes the named function with the given arguments and returns
// its result. A Go panic during execution (an engine bug or an
// injected fault) is recovered here and returned as a *LimitError
// wrapping ErrRuntimePanic, with the Stats accumulated so far intact.
func (ip *Interp) Run(name string, args ...Val) (ret Val, err error) {
	fn := ip.Prog.Func(name)
	if fn == nil {
		return Val{}, fmt.Errorf("interp: no function @%s", name)
	}
	defer func() {
		if r := recover(); r != nil {
			ret, err = Val{}, RecoveredError(r, fn.Name, ip.Stats.Steps)
		}
	}()
	return ip.call(fn, args)
}

func (ip *Interp) frameSize(fn *ir.Func) int {
	n, ok := ip.slotCache[fn]
	if !ok {
		n = ir.FinalizeSlots(fn)
		ip.slotCache[fn] = n
		ip.classifyIterLocal(fn)
	}
	return n
}

// classifyIterLocal marks allocations whose instances die at the end
// of each iteration of their innermost enclosing loop; the analysis
// itself lives in ir.IterLocalAllocs so the bytecode compiler bakes
// the very same classification into its instructions.
func (ip *Interp) classifyIterLocal(fn *ir.Func) {
	for in := range ir.IterLocalAllocs(fn) {
		ip.iterLocal[in] = true
	}
}

// registerAt registers a collection allocated by instruction in,
// replacing the previous instance for iteration-local allocations.
func (ip *Interp) registerAt(in *ir.Instr, c Coll) {
	if ip.iterLocal[in] {
		if slot, ok := ip.localSlot[in]; ok {
			ip.live[slot] = c
			ip.grew()
			return
		}
		ip.localSlot[in] = len(ip.live)
	}
	ip.register(c)
}

func (ip *Interp) call(fn *ir.Func, args []Val) (Val, error) {
	if len(args) != len(fn.Params) {
		return Val{}, ip.errf(fn, "called with %d args, want %d", len(args), len(fn.Params))
	}
	fr := make([]Val, ip.frameSize(fn))
	for i, p := range fn.Params {
		fr[p.Slot] = args[i]
	}
	c, ret, err := ip.execBlock(fn, fr, fn.Body)
	if err != nil {
		return Val{}, err
	}
	_ = c
	return ret, nil
}

func constVal(v *ir.Value) Val {
	if st, ok := v.Type.(*ir.ScalarType); ok {
		switch st.Kind {
		case ir.F32, ir.F64:
			return FloatV(v.ConstFlt)
		case ir.Str:
			return StrV(v.ConstStr)
		}
	}
	return IntV(v.ConstInt)
}

func (ip *Interp) eval(fr []Val, v *ir.Value) Val {
	if v.Kind == ir.VConst {
		return constVal(v)
	}
	if ip.reads != nil {
		ip.reads[v] = true
	}
	return fr[v.Slot]
}

// ReadValues returns the values read so far when Options.TrackReads
// was set, nil otherwise.
func (ip *Interp) ReadValues() map[*ir.Value]bool { return ip.reads }

// resolve walks an operand's nesting path, returning the addressed
// value. Intermediate map lookups are real dynamic accesses and are
// accounted as reads on the outer container.
func (ip *Interp) resolve(fn *ir.Func, fr []Val, o ir.Operand) (Val, error) {
	cur := ip.eval(fr, o.Base)
	for _, ix := range o.Path {
		switch ix.Kind {
		case ir.IdxField:
			if cur.K != VTuple || int(ix.Num) >= len(cur.Tuple()) {
				return Val{}, ip.errf(fn, "tuple access .%d on %v", ix.Num, cur)
			}
			cur = cur.Tuple()[ix.Num]
		default:
			if cur.K != VColl {
				return Val{}, ip.errf(fn, "indexing non-collection %v", cur)
			}
			var key Val
			switch ix.Kind {
			case ir.IdxValue:
				key = ip.eval(fr, ix.Val)
			case ir.IdxConst:
				key = IntV(ix.Num)
			case ir.IdxEnd:
				return Val{}, ip.errf(fn, "end index cannot be resolved as a value")
			}
			switch c := cur.Coll().(type) {
			case RMap:
				ip.Stats.Count(c.Impl(), OKRead, 1)
				ip.tcoll(c, OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return Val{}, ip.errf(fn, "nested read of missing key %v", key)
				}
				cur = v
			case RSeq:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					return Val{}, ip.errf(fn, "nested seq index %d out of range [0,%d)", i, c.Len())
				}
				ip.Stats.Count(c.Impl(), OKRead, 1)
				ip.tcoll(c, OKRead, 1)
				cur = c.Get(i)
			default:
				return Val{}, ip.errf(fn, "indexing into a set")
			}
		}
	}
	return cur, nil
}

type ctrl uint8

const (
	ctrlNormal ctrl = iota
	ctrlReturn
)

func (ip *Interp) execBlock(fn *ir.Func, fr []Val, b *ir.Block) (ctrl, Val, error) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ir.Instr:
			c, ret, err := ip.execInstr(fn, fr, n)
			if err != nil || c == ctrlReturn {
				return c, ret, err
			}
		case *ir.If:
			cond := ip.eval(fr, n.Cond)
			var body *ir.Block
			branch := 1
			if cond.Bool() {
				body = n.Then
				branch = 0
			} else {
				body = n.Else
			}
			c, ret, err := ip.execBlock(fn, fr, body)
			if err != nil || c == ctrlReturn {
				return c, ret, err
			}
			for _, p := range n.ExitPhis {
				fr[p.Result().Slot] = ip.eval(fr, p.Args[branch].Base)
			}
		case *ir.ForEach:
			if err := ip.execForEach(fn, fr, n); err != nil {
				return ctrlNormal, Val{}, err
			}
		case *ir.DoWhile:
			if err := ip.execDoWhile(fn, fr, n); err != nil {
				return ctrlNormal, Val{}, err
			}
		}
	}
	return ctrlNormal, Val{}, nil
}

func (ip *Interp) initHeaderPhis(fr []Val, phis []*ir.Instr) {
	for _, p := range phis {
		fr[p.Result().Slot] = ip.eval(fr, p.Args[0].Base)
	}
}

func (ip *Interp) latchHeaderPhis(fr []Val, phis []*ir.Instr) {
	// Evaluate all latches before writing any, matching parallel phi
	// semantics.
	tmp := make([]Val, len(phis))
	for i, p := range phis {
		tmp[i] = ip.eval(fr, p.Args[1].Base)
	}
	for i, p := range phis {
		fr[p.Result().Slot] = tmp[i]
	}
}

func (ip *Interp) exitPhis(fr []Val, phis []*ir.Instr) {
	for _, p := range phis {
		fr[p.Result().Slot] = ip.eval(fr, p.Args[0].Base)
	}
}

func (ip *Interp) execForEach(fn *ir.Func, fr []Val, n *ir.ForEach) error {
	collV, err := ip.resolve(fn, fr, n.Coll)
	if err != nil {
		return err
	}
	if collV.K != VColl {
		return ip.errf(fn, "for-each over non-collection %v", collV)
	}
	ip.initHeaderPhis(fr, n.HeaderPhis)
	kSlot, vSlot := n.Key.Slot, n.Val.Slot

	var iterErr error
	ip.Stats.Steps++
	CountIterSetup(ip.Stats, ip.tele, collV.Coll())
	tcount := ip.tele.IterCounter(collV.Coll()) // nil on a nil recorder
	step := func(k, v Val) bool {
		ip.Stats.Count(collV.Coll().Impl(), OKIter, 1)
		if tcount != nil {
			*tcount++
		}
		fr[kSlot], fr[vSlot] = k, v
		c, _, err := ip.execBlock(fn, fr, n.Body)
		if err != nil {
			iterErr = err
			return false
		}
		if c == ctrlReturn {
			iterErr = ip.errf(fn, "return inside for-each is unsupported")
			return false
		}
		ip.latchHeaderPhis(fr, n.HeaderPhis)
		return true
	}
	switch c := collV.Coll().(type) {
	case RSeq:
		c.Iterate(func(i int, v Val) bool { return step(IntV(uint64(i)), v) })
	case RSet:
		c.Iterate(func(v Val) bool { return step(v, v) })
	case RMap:
		c.Iterate(func(k, v Val) bool { return step(k, v) })
	}
	if iterErr != nil {
		return iterErr
	}
	ip.exitPhis(fr, n.ExitPhis)
	return nil
}

func (ip *Interp) execDoWhile(fn *ir.Func, fr []Val, n *ir.DoWhile) error {
	ip.initHeaderPhis(fr, n.HeaderPhis)
	for {
		ip.Stats.Steps++
		if ip.limited {
			if err := ip.interrupted(fn); err != nil {
				return err
			}
		}
		c, _, err := ip.execBlock(fn, fr, n.Body)
		if err != nil {
			return err
		}
		if c == ctrlReturn {
			return ip.errf(fn, "return inside do-while is unsupported")
		}
		cond := ip.eval(fr, n.Cond)
		if !cond.Bool() {
			break
		}
		ip.latchHeaderPhis(fr, n.HeaderPhis)
	}
	// At exit the header phis take their latch values one final time
	// so exit phis referencing them see the final state.
	ip.latchHeaderPhis(fr, n.HeaderPhis)
	ip.exitPhis(fr, n.ExitPhis)
	return nil
}
