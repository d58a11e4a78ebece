package interp

import (
	"fmt"
	"time"

	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// Runtime is the engine-independent half of an execution: everything
// the paper's numbers are read from, written once for both engines.
// It holds the normalized options and the Stats, the live registry
// behind the peak-memory model, the pending interruption, telemetry
// forwarding, allocation, enumeration creation, emit, the roi marker
// and the run's wall-clock timestamps. Interp and vm.VM embed it by
// value, so each engine owns only its own semantics: the interpreter
// walks IR, the VM dispatches bytecode, and both account through the
// same methods.
type Runtime struct {
	Stats *Stats

	// Opts are the normalized options (see NewRuntime); the engines
	// read them and nothing writes them afterwards.
	Opts Options

	// Tele is Opts.Telemetry: nil when telemetry is off.
	Tele *telemetry.Recorder

	// Limited is true when any interruption source (step budget,
	// memory budget, context) is configured; the dispatch fast paths
	// check this single bool before the full interruption test.
	Limited bool

	// stop holds a pending memory-budget violation detected during a
	// footprint sample; it surfaces at the next step checkpoint.
	stop *LimitError

	live        []interface{ Bytes() int64 }
	untilSample int

	// Output holds emitted values when Opts.RecordOutput is set.
	Output []Val

	// ROISnapshot is the Stats at the roi marker, nil until it runs.
	ROISnapshot *Stats

	// RunStart, ROIStart and RunEnd are the wall-clock instants at
	// which the last run started, passed the roi marker (zero when no
	// marker ran) and ended. Exec records them, so no caller times a
	// run by hand.
	RunStart, ROIStart, RunEnd time.Time
}

// NewRuntime returns the runtime of one execution under opts, with
// unset options normalized to the DefaultOptions values.
func NewRuntime(opts Options) Runtime {
	def := DefaultOptions()
	if opts.MemSampleEvery <= 0 {
		opts.MemSampleEvery = def.MemSampleEvery
	}
	if opts.DefaultSet == collections.ImplNone {
		opts.DefaultSet = def.DefaultSet
	}
	if opts.DefaultMap == collections.ImplNone {
		opts.DefaultMap = def.DefaultMap
	}
	return Runtime{
		Stats:       &Stats{},
		Opts:        opts,
		Tele:        opts.Telemetry,
		Limited:     opts.MaxSteps > 0 || opts.MaxBytes > 0 || opts.Context != nil,
		untilSample: opts.MemSampleEvery,
	}
}

// Exec runs body as one execution of function fn, stamping RunStart
// and RunEnd around it. A Go panic inside body (an engine bug or an
// injected fault) is recovered and returned as a *LimitError wrapping
// ErrRuntimePanic, with the Stats accumulated so far intact.
func (r *Runtime) Exec(fn string, body func() (Val, error)) (ret Val, err error) {
	r.RunStart = time.Now()
	defer func() {
		r.RunEnd = time.Now()
		if p := recover(); p != nil {
			ret, err = Val{}, &LimitError{Kind: ErrRuntimePanic, Fn: fn, Steps: r.Stats.Steps, Msg: fmt.Sprint(p)}
		}
	}()
	return body()
}

// Wall returns the last run's whole and ROI wall-clock time. Both
// intervals end at RunEnd; without a roi marker the ROI is the whole
// run.
func (r *Runtime) Wall() (whole, roi time.Duration) {
	whole = r.RunEnd.Sub(r.RunStart)
	if r.ROISnapshot == nil {
		return whole, whole
	}
	return whole, r.RunEnd.Sub(r.ROIStart)
}

// MarkROI snapshots the stats and wall clock; executed by the roi op.
// The VM flushes its local step tallies before calling it.
func (r *Runtime) MarkROI() {
	snap := *r.Stats
	r.ROISnapshot = &snap
	r.ROIStart = time.Now()
}

// ROIStats returns the kernel-only stats: the total minus the snapshot
// at the roi marker, or the full stats when no marker ran. The
// peak-memory model stays global, because memory allocated before the
// marker is still resident in the region of interest.
func (r *Runtime) ROIStats() *Stats {
	snap := r.ROISnapshot
	if snap == nil {
		return r.Stats
	}
	total := r.Stats
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

// Checkpoint runs the interruption tests that follow each engine's own
// step-budget test, in their fixed order: a pending memory-budget
// stop, then the context. steps is the run's step count so far; the
// context is polled only when steps&1023 == 1, a cheap deterministic
// schedule that still fires on the very first step for an already
// cancelled context. Sharing the order makes both engines report the
// same error kind with the same partial Stats when several limits trip
// at once.
func (r *Runtime) Checkpoint(fn string, steps uint64) error {
	if r.stop != nil {
		le := *r.stop
		le.Fn, le.Steps = fn, steps
		return &le
	}
	if r.Opts.Context != nil && steps&1023 == 1 && r.Opts.Context.Err() != nil {
		return &LimitError{Kind: ErrDeadline, Fn: fn, Steps: steps}
	}
	return nil
}

// Due reports whether Checkpoint can fail at step count steps. It is
// cheap enough for the VM's dispatch loop to inline, so a limited run
// makes no call on the steps where nothing is pending.
func (r *Runtime) Due(steps uint64) bool {
	return r.stop != nil || r.Opts.Context != nil && steps&1023 == 1
}

// CollOp forwards one collection operation to the telemetry recorder.
func (r *Runtime) CollOp(c any, k OpKind, n uint64) {
	if r.Tele != nil {
		r.Tele.CollOp(c, int(k), n)
	}
}

func (r *Runtime) register(c interface{ Bytes() int64 }) {
	r.live = append(r.live, c)
	r.Grew()
}

// Grew counts one growth event, sampling the footprint every
// MemSampleEvery-th event (a countdown instead of a modulo: same
// sample schedule, no integer division on the mutation fast path).
func (r *Runtime) Grew() {
	r.untilSample--
	if r.untilSample <= 0 {
		r.untilSample = r.Opts.MemSampleEvery
		r.sampleMem()
	}
}

func (r *Runtime) sampleMem() {
	var total int64
	for _, c := range r.live {
		total += c.Bytes()
	}
	r.Stats.CurBytes = total
	if total > r.Stats.PeakBytes {
		r.Stats.PeakBytes = total
	}
	if r.Opts.MaxBytes > 0 && total > r.Opts.MaxBytes && r.stop == nil {
		r.stop = &LimitError{Kind: ErrMemBudget, Bytes: total}
	}
}

// FinalizeMem folds a final footprint sample into the stats.
func (r *Runtime) FinalizeMem() { r.sampleMem() }

// NewColl materializes an empty collection of type ct, honoring its
// selection annotation (unselected types fall back to the configured
// defaults), and registers it for memory accounting. It is the
// allocation point Opts.Faults can fail.
func (r *Runtime) NewColl(ct *ir.CollType) Coll {
	if fa := r.Opts.Faults; fa != nil && fa.FailAlloc() {
		panic(&faults.InjectedFault{P: fa.Point()})
	}
	c := NewCollFor(ct, r.Opts.DefaultSet, r.Opts.DefaultMap)
	r.register(c)
	return c
}

// NewLocalColl allocates an iteration-local collection: a fresh
// instance per loop iteration that is never carried across iterations.
// Every instance of one allocation site occupies the registry slot
// *slot (-1 before the site's first allocation), modeling the
// allocator reclaiming the dead instance, so peak memory is not the sum
// of every instance ever created. The instance is registered
// persistently first and then demoted to the slot: two growth events
// per allocation.
func (r *Runtime) NewLocalColl(ct *ir.CollType, slot *int32) Coll {
	c := r.NewColl(ct)
	if *slot >= 0 {
		r.live = r.live[:len(r.live)-1]
		r.live[*slot] = c
	} else {
		*slot = int32(len(r.live) - 1)
	}
	r.Grew()
	return c
}

// NewEnum creates an empty enumeration over key (storage chosen by
// newEnum), registers it for memory accounting and names it to
// telemetry: name is the enumeration global's, "" for a local one.
func (r *Runtime) NewEnum(key ir.Type, name string) *Enum {
	e := newEnum(key)
	r.register(e)
	if r.Tele != nil {
		r.Tele.TrackEnum(e, name)
	}
	return e
}

// Emit folds v into the order-insensitive output checksum and, when
// Opts.RecordOutput is set, records it.
func (r *Runtime) Emit(v Val) {
	r.Stats.EmitCount++
	r.Stats.EmitSum += collections.Mix64(v.Bits())
	if r.Opts.RecordOutput {
		r.Output = append(r.Output, v)
	}
}
