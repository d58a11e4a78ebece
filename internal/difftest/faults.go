package difftest

import (
	"fmt"
	"io"

	"memoir/internal/bench"
	"memoir/internal/faults"
)

// Fault-sweep cell outcomes. Every outcome except FaultUnexpected is a
// contained fault; FaultUnexpected (a panic that escaped every
// recovery layer, or the sandbox returning an error it should have
// absorbed) fails the run.
const (
	FaultRolledBack   = "rolled-back"
	FaultCrash        = "crash"
	FaultDegraded     = "degraded"
	FaultNotTriggered = "not-triggered"
	FaultUnexpected   = "unexpected"
)

// FaultOptions configures one fault-injection sweep (adediff -faults).
type FaultOptions struct {
	Scale bench.Scale
	Shard Shard
	// Benchmarks and Configs filter like RunOptions; empty means all.
	Benchmarks []string
	Configs    []string
	// Matrix overrides the configuration matrix (tests); nil means
	// Matrix().
	Matrix []Config
	// Faults selects injection points by name (faults.ByName syntax);
	// empty sweeps the whole registry.
	Faults []string
	// Verbose, when non-nil, receives one progress line per cell.
	Verbose io.Writer
}

// RunFaults injects every selected fault point — one at a time, with a
// fresh deterministic injector per cell — into every benchmark ×
// matrix-column cell and classifies how the system contained it:
//
//   - a compile-time pass panic must be rolled back by the sandbox
//     (output identical to the reference, Report.Degraded recorded);
//   - a runtime allocation failure must surface as a structured
//     ErrRuntimePanic, never a process panic ("crash");
//   - a silent enumeration corruption may reach the output
//     ("degraded") — the miscompile shape — in which case the cell is
//     triaged by fuel bisection to the first faulty rewrite index.
//
// "crash" and "degraded" cells are recorded as informative
// Divergences; only a fault that escapes containment ("unexpected")
// makes the report fail. A non-nil error means the harness itself
// failed before sweeping.
func RunFaults(o FaultOptions) (*Report, error) {
	matrix := o.Matrix
	if matrix == nil {
		matrix = Matrix()
	}
	cfgs, err := selectConfigs(matrix, o.Configs)
	if err != nil {
		return nil, err
	}
	specs, err := selectBenchmarks(RunOptions{Shard: o.Shard, Benchmarks: o.Benchmarks})
	if err != nil {
		return nil, err
	}
	var pts []faults.Point
	if len(o.Faults) == 0 {
		pts = faults.Registry()
	} else {
		for _, name := range o.Faults {
			pt, err := faults.ByName(name)
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
		}
	}

	rpt := NewReport(o.Scale, o.Shard, ConfigNames(cfgs))
	fr := &FaultReport{}
	for _, pt := range pts {
		fr.Points = append(fr.Points, pt.Name)
	}
	rpt.FaultSweep = fr

	for _, s := range specs {
		// The healthy reference: untransformed program, baseline hash
		// implementations, interpreter, no faults.
		ref, err := reference(specSource(s, o.Scale))
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", s.Abbr, err)
		}
		for _, pt := range pts {
			for _, c := range cfgs {
				cell := runFaultCell(s, c, pt, ref, o.Scale)
				fr.Cells = append(fr.Cells, cell)
				if cell.Outcome == FaultCrash || cell.Outcome == FaultDegraded {
					d := Divergence{
						Bench: s.Abbr, Config: c.Name,
						Kind: cell.Outcome, Fault: pt.Name, Detail: cell.Detail,
					}
					if cell.FirstBadRewrite >= 0 {
						k := cell.FirstBadRewrite
						d.FirstBadRewrite = &k
					}
					rpt.Divergences = append(rpt.Divergences, d)
				}
				if o.Verbose != nil {
					extra := ""
					if cell.FirstBadRewrite >= 0 {
						extra = fmt.Sprintf(" first-bad-rewrite=%d", cell.FirstBadRewrite)
					}
					fmt.Fprintf(o.Verbose, "%-5s %-22s %-20s %s%s\n", s.Abbr, c.Name, pt.Name, cell.Outcome, extra)
				}
			}
		}
	}
	rpt.Finish()
	return rpt, nil
}

// runFaultCell runs one (benchmark, config) cell with pt injected and
// classifies the outcome. An injected fault is contained when it is
// rolled back, crashes as an error, or degrades the output; a panic
// reaching this cell's recover escaped every recovery layer and
// classifies as "unexpected".
func runFaultCell(s *bench.Spec, c Config, pt faults.Point, ref *outcome, sc bench.Scale) (cell FaultCell) {
	cell = FaultCell{Fault: pt.Name, Bench: s.Abbr, Config: c.Name, FirstBadRewrite: -1}
	defer func() {
		if r := recover(); r != nil {
			cell.Outcome = FaultUnexpected
			cell.Detail = fmt.Sprintf("escaped panic: %v", r)
		}
	}()

	if pt.Kind == faults.PassPanic && c.ADE == nil {
		cell.Outcome = FaultNotTriggered
		cell.Detail = "baseline column runs no compiler pipeline"
		return cell
	}

	src := specSource(s, sc)
	fc, compileInj := faulted(c, pt, 0)
	prog, rep, err := build(src, fc)
	if err != nil {
		// The sandbox is on for every fault-sweep ADE column; an error
		// here means it failed to absorb the fault.
		cell.Outcome = FaultUnexpected
		cell.Detail = err.Error()
		return cell
	}

	iopts := interpOpts(c)
	var runInj *faults.Injector
	if pt.Kind != faults.PassPanic {
		runInj = faults.NewInjector(pt)
		iopts.Faults = runInj
	}
	got, err := run(src, prog, iopts, c.Engine)
	if err != nil {
		cell.Outcome = FaultCrash
		cell.Detail = err.Error()
		cell.FirstBadRewrite = bisectFault(src, c, pt, ref)
		return cell
	}

	if equalOutput(ref, got) {
		switch {
		case rep != nil && len(rep.Degraded) > 0:
			cell.Outcome = FaultRolledBack
			cell.Detail = rep.Degraded[0]
		case compileInj.Fired() || runInj.Fired():
			cell.Outcome = FaultRolledBack
			cell.Detail = "fault fired; output unaffected"
		default:
			cell.Outcome = FaultNotTriggered
		}
		return cell
	}
	cell.Outcome = FaultDegraded
	cell.Detail = fmt.Sprintf("ret %d vs %d, emits (%d,%d) vs (%d,%d)",
		got.ret, ref.ret, got.emitCount, got.emitSum, ref.emitCount, ref.emitSum)
	cell.FirstBadRewrite = bisectFault(src, c, pt, ref)
	return cell
}

// faulted returns c with the compile-time half of pt applied to its
// ADE options, and the injector it installed (nil for runtime points).
// Every ADE column runs sandboxed — the sweep's claim is that faults
// degrade, not crash. fuel is passed through to Options.Fuel for
// bisection probes: 0 means unlimited (the cell itself), negative
// means no rewrites at all.
func faulted(c Config, pt faults.Point, fuel int) (Config, *faults.Injector) {
	if c.ADE == nil {
		return c, nil
	}
	a := *c.ADE
	a.Sandbox = true
	a.Fuel = fuel
	var inj *faults.Injector
	if pt.Kind == faults.PassPanic {
		inj = faults.NewInjector(pt)
		a.Faults = inj
	}
	c.ADE = &a
	return c, inj
}

// bisectFault triages a "crash" or "degraded" cell on an ADE column:
// because the rewrite sequence under -fuel is a deterministic prefix
// of the unlimited run, binary search over the fuel level finds the
// smallest rewrite count at which the fault's effect appears. Returns
// the first faulty rewrite index, 0 if even the untransformed program
// misbehaves under this fault, or -1 when bisection does not apply
// (baseline column, or the healthy run performs no rewrites).
func bisectFault(src source, c Config, pt faults.Point, ref *outcome) int {
	if c.ADE == nil {
		return -1
	}
	// The healthy unlimited run bounds the search: its rewrite count is
	// the bisection's upper end.
	_, rep, err := build(src, c)
	if err != nil || rep.Rewrites == 0 {
		return -1
	}
	if faultProbe(src, c, pt, ref, 0) {
		return 0
	}
	// Invariant: probe(lo) is good, probe(hi) is bad. hi starts at the
	// full rewrite count — the observed faulty cell itself.
	lo, hi := 0, rep.Rewrites
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if faultProbe(src, c, pt, ref, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// faultProbe replays the cell with the first k rewrites only and a
// fresh injector, reporting whether the fault's effect (crash or wrong
// output) appears.
func faultProbe(src source, c Config, pt faults.Point, ref *outcome, k int) bool {
	fuel := k
	if k == 0 {
		fuel = -1 // core convention: negative fuel permits no rewrites
	}
	fc, _ := faulted(c, pt, fuel)
	prog, _, err := build(src, fc)
	if err != nil {
		return true
	}
	iopts := interpOpts(c)
	if pt.Kind != faults.PassPanic {
		iopts.Faults = faults.NewInjector(pt)
	}
	got, err := run(src, prog, iopts, c.Engine)
	if err != nil {
		return true
	}
	return !equalOutput(ref, got)
}
