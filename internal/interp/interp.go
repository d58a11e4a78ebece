package interp

import (
	"context"
	"fmt"

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

// Interp executes a MEMOIR program by walking its IR: the reference
// oracle the VM is diffed against. The embedded Runtime holds every
// measurement; Interp adds only what walking IR needs.
type Interp struct {
	Runtime
	Prog *ir.Program

	// Enumeration globals created by ADE's interprocedural stage: one
	// per enumeration equivalence class (§III-F).
	globals map[string]*Enum

	// iterLocal maps each iteration-local allocation (a fresh
	// collection per loop iteration that is never carried across
	// iterations) to its reusable registry slot; see NewLocalColl.
	iterLocal map[*ir.Instr]*int32

	// reads is non-nil when TrackReads is set.
	reads map[*ir.Value]bool

	// allocOrds caches per-function allocation ordinals for telemetry
	// site keys; non-nil when Options.Telemetry is set.
	allocOrds map[*ir.Func]map[*ir.Instr]int

	slotCache map[*ir.Func]int
}

// New returns an interpreter for prog.
func New(prog *ir.Program, opts Options) *Interp {
	ip := &Interp{
		Runtime:   NewRuntime(opts),
		Prog:      prog,
		globals:   map[string]*Enum{},
		slotCache: map[*ir.Func]int{},
		iterLocal: map[*ir.Instr]*int32{},
	}
	if opts.TrackReads {
		ip.reads = map[*ir.Value]bool{}
	}
	if opts.Telemetry != nil {
		ip.allocOrds = map[*ir.Func]map[*ir.Instr]int{}
	}
	return ip
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

// global returns the enumeration global named by in, creating it over
// in's key type on first use.
func (ip *Interp) global(in *ir.Instr) *Enum {
	e, ok := ip.globals[in.Callee]
	if !ok {
		e = ip.NewEnum(in.EnumKey(), in.Callee)
		ip.globals[in.Callee] = e
	}
	return e
}

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

// interrupted runs the full interruption test at a step checkpoint:
// the step budget, then the runtime's shared Checkpoint.
func (ip *Interp) interrupted(fn *ir.Func) error {
	if ip.Opts.MaxSteps > 0 && ip.Stats.Steps > ip.Opts.MaxSteps {
		return &LimitError{Kind: ErrStepBudget, Fn: fn.Name, Steps: ip.Stats.Steps}
	}
	return ip.Checkpoint(fn.Name, ip.Stats.Steps)
}

// Run executes the named function with the given arguments and returns
// its result, timed and panic-guarded by the runtime's Exec.
func (ip *Interp) Run(name string, args ...Val) (Val, error) {
	fn := ip.Prog.Func(name)
	if fn == nil {
		return Val{}, fmt.Errorf("interp: no function @%s", name)
	}
	return ip.Exec(fn.Name, func() (Val, error) { return ip.call(fn, args) })
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

// classifyIterLocal gives every allocation whose instances die at the
// end of each iteration of its innermost enclosing loop a registry
// slot; the analysis itself lives in ir.IterLocalAllocs so the
// bytecode compiler bakes the very same classification into its
// instructions.
func (ip *Interp) classifyIterLocal(fn *ir.Func) {
	for in := range ir.IterLocalAllocs(fn) {
		slot := int32(-1)
		ip.iterLocal[in] = &slot
	}
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
				ip.CollOp(c, OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return Val{}, ip.errf(fn, "nested read of missing key %v", key)
				}
				cur = v
			case *RSeqArr:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					return Val{}, ip.errf(fn, "nested seq index %d out of range [0,%d)", i, c.Len())
				}
				ip.Stats.Count(c.Impl(), OKRead, 1)
				ip.CollOp(c, OKRead, 1)
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
	CountIterSetup(ip.Stats, ip.Tele, collV.Coll())
	tcount := ip.Tele.IterCounter(collV.Coll()) // nil on a nil recorder
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
	case *RSeqArr:
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
		if ip.Limited {
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
