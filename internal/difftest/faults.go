package difftest

import (
	"memoir/internal/faults"
	"memoir/internal/interp"
)

// faultPoints resolves Options.Faults. With no names the sweep runs
// once, uninjected: the single zero Point.
func faultPoints(names []string) ([]faults.Point, error) {
	if len(names) == 0 {
		return []faults.Point{{}}, nil
	}
	var pts []faults.Point
	for _, name := range names {
		if name == "all" {
			pts = append(pts, faults.Registry()...)
			continue
		}
		pt, err := faults.ByName(name)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// inject arms column c with a fresh injector for pt: a compile-time
// point fires inside the ADE pass, a runtime point in the engine
// (iopts). Every ADE column runs sandboxed under a fault — the sweep's
// claim is that faults degrade, not crash.
func inject(c Config, iopts *interp.Options, pt faults.Point) (Config, *faults.Injector) {
	inj := faults.NewInjector(pt)
	if pt.Kind != faults.PassPanic {
		iopts.Faults = inj
	}
	if c.ADE != nil {
		a := *c.ADE
		a.Sandbox = true
		if pt.Kind == faults.PassPanic {
			a.Faults = inj
		}
		c.ADE = &a
	}
	return c, inj
}

// bisectFault triages a crashed or degraded faulted cell on an ADE
// column: because the rewrite sequence under fuel is a deterministic
// prefix of the unlimited run, binary search over the fuel level finds
// the smallest rewrite count at which the fault's effect appears.
// Returns the first faulty rewrite index, 0 if even the untransformed
// program misbehaves under this fault, or nil when bisection does not
// apply (baseline column, or the healthy run performs no rewrites).
func bisectFault(src source, c Config, pt faults.Point, ref *outcome) *int {
	if c.ADE == nil {
		return nil
	}
	// The healthy run bounds the search: its rewrite count is the
	// bisection's upper end.
	_, rep, err := build(src, c)
	if err != nil || rep.Rewrites == 0 {
		return nil
	}
	// probe replays the cell with the first k rewrites only.
	probe := func(k int) bool {
		fuel := k
		if k == 0 {
			fuel = -1 // core convention: negative fuel permits no rewrites
		}
		e, _ := runCell(src, column(c, false, fuel), pt, ref)
		return e.failed()
	}
	// Invariant: probe(lo) is good, probe(hi) is bad. hi starts at the
	// full rewrite count — the observed faulty cell itself.
	lo, hi := 0, rep.Rewrites
	if probe(0) {
		hi = 0
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if probe(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return &hi
}
