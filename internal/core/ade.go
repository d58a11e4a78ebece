package core

import (
	"fmt"

	"memoir/internal/adeprofile"
	"memoir/internal/ir"
	"memoir/internal/remarks"
)

// adeCtx is the shared state of one ADE run.
type adeCtx struct {
	prog *ir.Program
	opts Options
	fis  map[*ir.Func]*fnInfo

	// linked maps an allocation-site facet to the parameter facets it
	// structurally reaches through call arguments (transitively).
	// Candidate benefit extends across these links so that callee
	// redundancy (e.g. the chase loop inside a find() helper) counts
	// toward the caller's allocation, as Algorithm 5's unification
	// implies.
	linked map[*facet][]*facet

	// fnAlias maps clone names to their originals (clones inherit
	// their original's profiled sites).
	fnAlias map[string]string

	// allocOrds caches per-function allocation ordinals for remark
	// site keys (filled only when remarks are enabled).
	allocOrds map[*ir.Func]map[*ir.Instr]int

	// siteProf is the adeprofile/v1 entry matched to this program
	// (nil when none was supplied or the supplied one was stale), and
	// siteWts caches the per-function instruction weights derived from
	// it. See profileguided.go.
	siteProf *adeprofile.ProgramProfile
	siteWts  map[*ir.Func]map[*ir.Instr]uint64

	// fuel meters Options.Fuel across the whole run: enumeration
	// classes first, then RTE elisions (see sandbox.go).
	fuel *fuelState

	// ce and ext are the benefit evaluation's scratch, reused by every
	// extBenefit call of this run. facetBen memoizes the benefit of
	// each single facet for Algorithm 3's probes; it holds only while
	// the linkage does, so rebuildLinkage drops it.
	ce       *classEval
	ext      extScratch
	facetBen map[*facet]int

	// onJoinGain, when set, observes every answer joinGain gives. It
	// is nil except under test.
	onJoinGain func(c *candidate, b *facet, bSum, bCup int)
}

// extScratch is extBenefit's working state: the facets reached from
// the evaluated group (all, deduplicated by seen), the functions
// already evaluated, one function's share of all, and joinGain's
// prospective union.
type extScratch struct {
	seen   map[*facet]bool
	fnDone map[*ir.Func]bool
	all    []*facet
	group  []*facet
	join   []*facet
}

func newAdeCtx(prog *ir.Program, opts Options) *adeCtx {
	return &adeCtx{
		prog: prog, opts: opts, fis: map[*ir.Func]*fnInfo{},
		fnAlias:   map[string]string{},
		allocOrds: map[*ir.Func]map[*ir.Instr]int{},
		siteWts:   map[*ir.Func]map[*ir.Instr]uint64{},
		fuel:      newFuel(opts.Fuel),
		ce:        newClassEval(),
		ext:       extScratch{seen: map[*facet]bool{}, fnDone: map[*ir.Func]bool{}},
		facetBen:  map[*facet]int{},
	}
}

// weightFn returns the benefit weight function for fn: nil (static
// counts) without a matched site profile, observed per-site operation
// counts with one.
func (cx *adeCtx) weightFn(fn *ir.Func) func(*ir.Instr) uint64 {
	if cx.siteProf == nil {
		return nil
	}
	m := cx.siteWeights(fn)
	return func(in *ir.Instr) uint64 {
		if w, ok := m[in]; ok {
			return w
		}
		return 1 // instruction unknown to the profile (cmp, inserted)
	}
}

// rebuildLinkage recomputes facet linkage across call edges.
func (cx *adeCtx) rebuildLinkage() {
	cx.linked = map[*facet][]*facet{}
	clear(cx.facetBen)
	// Direct edges: argument root facets -> parameter root facets.
	direct := map[*facet][]*facet{}
	for _, name := range cx.prog.Order {
		fn := cx.prog.Funcs[name]
		fi := cx.fis[fn]
		if fi == nil {
			continue
		}
		ir.WalkInstrs(fn, func(in *ir.Instr) {
			if in.Op != ir.OpCall {
				return
			}
			callee := cx.prog.Func(in.Callee)
			cfi := cx.fis[callee]
			if cfi == nil {
				return
			}
			for i, a := range in.Args {
				if a.Base == nil || len(a.Path) > 0 || ir.AsColl(a.InnerType()) == nil {
					continue
				}
				if i >= len(callee.Params) {
					continue
				}
				for _, as := range fi.sites {
					if !as.redefs[a.Base] {
						continue
					}
					for _, ps := range cfi.sites {
						if ps.param != callee.Params[i] || ps.depth != as.depth {
							continue
						}
						if as.key != nil && ps.key != nil {
							direct[as.key] = append(direct[as.key], ps.key)
						}
						if as.elem != nil && ps.elem != nil {
							direct[as.elem] = append(direct[as.elem], ps.elem)
						}
					}
				}
			}
		})
	}
	// Transitive closure (params forwarded to further calls).
	var close func(f *facet, seen map[*facet]bool, out *[]*facet)
	close = func(f *facet, seen map[*facet]bool, out *[]*facet) {
		for _, g := range direct[f] {
			if seen[g] {
				continue
			}
			seen[g] = true
			*out = append(*out, g)
			close(g, seen, out)
		}
	}
	for f := range direct {
		if f.st.param != nil {
			continue // closure is rooted at allocations
		}
		seen := map[*facet]bool{f: true}
		var out []*facet
		close(f, seen, &out)
		cx.linked[f] = out
	}
}

// extBenefit evaluates a facet group including the linked parameter
// facets in callees, grouped per function. The answer depends only on
// the set of facets, the linkage and the per-function analyses, none
// of which candidate formation changes; that is what makes the
// memoized probes of joinGain sound.
func (cx *adeCtx) extBenefit(facets []*facet) int {
	x := &cx.ext
	clear(x.seen)
	clear(x.fnDone)
	x.all = x.all[:0]
	for _, f := range facets {
		cx.extAdd(f)
	}
	total := 0
	for _, f := range x.all {
		fn := f.st.fn
		if x.fnDone[fn] {
			continue
		}
		x.fnDone[fn] = true
		x.group = x.group[:0]
		for _, g := range x.all {
			if g.st.fn == fn {
				x.group = append(x.group, g)
			}
		}
		total += cx.ce.benefit(cx.fis[fn], x.group, cx.weightFn(fn))
	}
	return total
}

// extAdd adds f and, transitively, its linked facets to the group
// extBenefit evaluates.
func (cx *adeCtx) extAdd(f *facet) {
	if cx.ext.seen[f] {
		return
	}
	cx.ext.seen[f] = true
	cx.ext.all = append(cx.ext.all, f)
	for _, g := range cx.linked[f] {
		cx.extAdd(g)
	}
}

// Apply runs Automatic Data Enumeration over the whole program,
// mutating it in place, and returns a report of the decisions taken.
//
// Each sub-pass runs inside a sandbox step (see sandbox.go): with
// Options.Sandbox a failing sub-pass rolls the program back to the
// untransformed state and Apply still returns successfully, with the
// failure recorded in Report.Degraded; otherwise failures surface as
// errors exactly as before, except that a sub-pass panic becomes an
// error instead of crashing the process.
func Apply(prog *ir.Program, opts Options) (*Report, error) {
	report := &Report{}

	// Pragma validation stays outside the sandbox: it inspects the
	// untransformed input, and a malformed pragma is a caller mistake
	// the caller must hear about even in sandboxed runs.
	chk := &checkCtx{on: opts.Check, prog: prog}
	if err := chk.pragmas(); err != nil {
		return report, err
	}

	cx := newAdeCtx(prog, opts)
	// Profile resolution runs against the untransformed program (the
	// profile's hash and site keys describe what the user wrote) and
	// outside the sandbox: it mutates nothing, and a stale profile is
	// a degradation to static decisions, not a failure.
	cx.resolveSiteProfile(report)
	em := opts.Remarks
	sz := func() int {
		if em == nil {
			return 0
		}
		return irSize(prog)
	}
	sb := newSandbox(prog, opts, report, em, sz)

	if err := sb.step("use-analysis", func() error {
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			cx.fis[fn] = analyzeFunc(fn)
		}
		cx.rebuildLinkage()
		if err := chk.program("use-analysis"); err != nil {
			return err
		}
		return chk.sites("use-analysis", cx.fis)
	}); err != nil {
		return report, err
	}

	var static []staticSite
	if err := sb.step("static-enum", func() error {
		static = staticEnumerate(cx)
		for _, st := range static {
			report.Static = append(report.Static, st.s.name())
		}
		if err := chk.program("static-enum"); err != nil {
			return err
		}
		return chk.staticSites("static-enum", static)
	}); err != nil {
		return report, err
	}

	cands := map[*ir.Func][]*candidate{}
	if err := sb.step("candidate-formation", func() error {
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			cands[fn] = formCandidates(cx, cx.fis[fn], report)
		}
		return chk.candidates("candidate-formation", cands, opts)
	}); err != nil {
		return report, err
	}

	var classes []*classInfo
	var classOf map[*facet]*classInfo
	if err := sb.step("interprocedural-unification", func() error {
		ipc := &interproc{cx: cx, prog: prog, opts: opts, report: report, fis: cx.fis, cands: cands, clones: map[string]string{}}
		var err error
		classes, classOf, err = ipc.resolve()
		if err != nil {
			return err
		}
		if err := chk.program("interprocedural-unification"); err != nil {
			return err
		}
		return chk.classes("interprocedural-unification", classes, classOf)
	}); err != nil {
		return report, err
	}

	if err := sb.step("union-safety", func() error {
		dropUnsafeUnionClasses(cx, classes, classOf, report)
		applyFuelToClasses(cx, classes, classOf, report)
		if err := chk.classes("union-safety", classes, classOf); err != nil {
			return err
		}
		cx.emitClassRemarks(classes, classOf)
		return nil
	}); err != nil {
		return report, err
	}

	if err := sb.step("transform", func() error {
		// prog.Order may have grown with clones; transform everything.
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			fi := cx.fis[fn]
			if fi == nil {
				continue
			}
			if err := transformFunc(cx, fi, opts, classOf); err != nil {
				return fmt.Errorf("ade: @%s: %w", fn.Name, err)
			}
			// Mid-loop, callers and callees legitimately disagree on
			// collection argument types; check each function locally.
			if err := chk.funcLocal("transform", fn); err != nil {
				return err
			}
		}
		if err := chk.program("transform"); err != nil {
			return err
		}
		if opts.RTE && !cx.fuel.limited {
			// Fuel-limited runs legitimately leave residual
			// translations wherever an elision was denied.
			return chk.residuals("redundant-translation elimination")
		}
		return nil
	}); err != nil {
		return report, err
	}

	report.Rewrites = cx.fuel.used
	if sb.dead {
		// Rolled back: the program is the untransformed input; any
		// classes computed before the failure no longer describe it.
		report.Classes = nil
		report.Static = nil
		report.Rewrites = 0
		return report, nil
	}
	em.End(sz())

	for _, ci := range classes {
		if !classAlive(ci, classOf) {
			continue
		}
		cr := &ClassReport{Global: ci.global, Benefit: ci.benefit}
		for _, f := range ci.facets {
			cr.Sites = append(cr.Sites, f.name())
		}
		report.Classes = append(report.Classes, cr)
	}
	return report, nil
}

func classAlive(ci *classInfo, classOf map[*facet]*classInfo) bool {
	for _, f := range ci.facets {
		if classOf[f] == ci {
			return true
		}
	}
	return false
}

// dropUnsafeUnionClasses is a correctness net: a union instruction
// whose two operands would end up with different enumerations (or one
// enumerated and one plain) cannot be lowered word-wise nor
// element-wise without retranslation we do not insert; drop the
// enumeration of both sides.
func dropUnsafeUnionClasses(cx *adeCtx, classes []*classInfo, classOf map[*facet]*classInfo, report *Report) {
	prog, fis := cx.prog, cx.fis
	siteKeyFacet := func(fi *fnInfo, o ir.Operand) (*facet, bool) {
		if o.Base == nil {
			return nil, false
		}
		d := len(o.Path)
		for _, s := range fi.sites {
			if s.depth == d && s.redefs[o.Base] {
				return s.key, true
			}
		}
		return nil, false
	}
	drop := func(ci *classInfo, why string) {
		if ci == nil {
			return
		}
		alive := false
		for _, f := range ci.facets {
			if classOf[f] == ci {
				alive = true
				delete(classOf, f)
			}
		}
		if alive {
			report.Skipped = append(report.Skipped, fmt.Sprintf("class %s dropped: %s", ci.global, why))
			cx.emit(remarks.Remark{
				Code: remarks.CodeEnumSkip, Pass: "union-safety",
				Site:    ci.global,
				Message: why,
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			fi := fis[fn]
			if fi == nil {
				continue
			}
			ir.WalkInstrs(fn, func(in *ir.Instr) {
				if in.Op != ir.OpUnion {
					return
				}
				fa, okA := siteKeyFacet(fi, in.Args[0])
				fb, okB := siteKeyFacet(fi, in.Args[1])
				var ca, cb *classInfo
				if okA && fa != nil {
					ca = classOf[fa]
				}
				if okB && fb != nil {
					cb = classOf[fb]
				}
				if ca == cb {
					return
				}
				if ca != nil {
					drop(ca, "union with a differently-enumerated set")
					changed = true
				}
				if cb != nil {
					drop(cb, "union with a differently-enumerated set")
					changed = true
				}
			})
		}
	}
}
