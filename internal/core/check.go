package core

import (
	"fmt"

	"memoir/internal/analysis"
	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Check mode (§ adec -check): between every ADE sub-pass, re-verify
// the IR and assert the pipeline's own invariants. The checks are
// pure reads — a run with Check enabled makes exactly the same
// decisions as one without — and exist to catch pipeline bugs at the
// stage that introduced them rather than at execution time.

// checkCtx carries the -check state through one Apply run. With on ==
// false every method is a no-op.
type checkCtx struct {
	on   bool
	prog *ir.Program
}

func (c *checkCtx) errf(stage, format string, args ...any) error {
	return fmt.Errorf("ade check after %s: %s", stage, fmt.Sprintf(format, args...))
}

// pragmas validates `#pragma ade` directives before the pipeline
// consumes them (ADE005).
func (c *checkCtx) pragmas() error {
	if !c.on {
		return nil
	}
	for _, d := range analysis.CheckPragmas(c.prog) {
		if d.Severity == analysis.SevError {
			return c.errf("pragma validation", "%s", d)
		}
	}
	return nil
}

// program re-verifies the whole IR.
func (c *checkCtx) program(stage string) error {
	if !c.on {
		return nil
	}
	if err := ir.Verify(c.prog); err != nil {
		return fmt.Errorf("ade check after %s: %w", stage, err)
	}
	return nil
}

// funcLocal verifies one function without cross-call type agreement —
// mid-transformation, a transformed caller legitimately disagrees with
// a not-yet-transformed callee.
func (c *checkCtx) funcLocal(stage string, fn *ir.Func) error {
	if !c.on {
		return nil
	}
	if err := ir.VerifyFuncLocal(c.prog, fn); err != nil {
		return fmt.Errorf("ade check after %s: @%s: %w", stage, fn.Name, err)
	}
	return nil
}

// sites asserts the use-analysis invariants: every patch point
// addresses a live operand position, every identifier source is a real
// value, and every facet domain is enumerable.
func (c *checkCtx) sites(stage string, fis map[*ir.Func]*fnInfo) error {
	if !c.on {
		return nil
	}
	for _, fi := range fis {
		for _, s := range fi.sites {
			if len(s.redefs) == 0 {
				return c.errf(stage, "site %s has an empty redef web", s.name())
			}
			for _, f := range []*facet{s.key, s.elem} {
				if f == nil {
					continue
				}
				if !enumerableKey(f.domain) {
					return c.errf(stage, "facet %s has non-enumerable domain %v", f.name(), f.domain)
				}
				for _, pp := range append(append([]patchPoint{}, f.toEnc...), f.toAdd...) {
					if err := checkPatchPoint(pp); err != nil {
						return c.errf(stage, "facet %s: %v", f.name(), err)
					}
				}
				for _, v := range f.idSources {
					if v == nil {
						return c.errf(stage, "facet %s has a nil identifier source", f.name())
					}
				}
			}
		}
	}
	return nil
}

func checkPatchPoint(pp patchPoint) error {
	switch {
	case pp.loop == nil && pp.instr == nil:
		return fmt.Errorf("patch point with no user")
	case pp.instr != nil && (pp.arg < 0 || pp.arg >= len(pp.instr.Args)):
		return fmt.Errorf("patch point arg %d out of range for %v", pp.arg, pp.instr.Op)
	}
	o := pp.operand()
	if pp.path >= len(o.Path) {
		return fmt.Errorf("patch point path %d out of range", pp.path)
	}
	if pp.value() == nil {
		return fmt.Errorf("patch point addresses a nil value")
	}
	return nil
}

// staticSites asserts the static-enum invariants: every applied site
// carries a dense selection over its original integer key domain and
// its proved range fits analysis.StaticDenseLimit.
func (c *checkCtx) staticSites(stage string, static []staticSite) error {
	if !c.on {
		return nil
	}
	for _, st := range static {
		s := st.s
		if s.collType.Sel == collections.ImplNone {
			return c.errf(stage, "static site %s has no implementation selected", s.name())
		}
		if !integerKey(s.collType.Key) {
			return c.errf(stage, "static site %s keeps non-integer key domain %v", s.name(), s.collType.Key)
		}
		if !st.keys.Within(0, analysis.StaticDenseLimit-1) {
			return c.errf(stage, "static site %s proved range %s exceeds limit %d", s.name(), st.keys, analysis.StaticDenseLimit)
		}
		if s.escaped != "" {
			return c.errf(stage, "static site %s is escaped (%s)", s.name(), s.escaped)
		}
		if !s.staticDense {
			return c.errf(stage, "static site %s is not marked staticDense", s.name())
		}
	}
	return nil
}

// candidates asserts that no candidate contains an escaped or
// directive-excluded facet.
func (c *checkCtx) candidates(stage string, cands map[*ir.Func][]*candidate, opts Options) error {
	if !c.on {
		return nil
	}
	for _, cs := range cands {
		for _, cand := range cs {
			for _, f := range cand.facets {
				if f.st.escaped != "" {
					return c.errf(stage, "candidate contains escaped facet %s (%s)", f.name(), f.st.escaped)
				}
				if f.st.dir != nil && f.st.dir.NoEnumerate {
					return c.errf(stage, "candidate contains noenumerate facet %s", f.name())
				}
				if !eligible(f, opts) {
					return c.errf(stage, "candidate contains ineligible facet %s", f.name())
				}
			}
		}
	}
	return nil
}

// classes asserts that every live class has an enumeration global and
// only safe facets.
func (c *checkCtx) classes(stage string, classes []*classInfo, classOf map[*facet]*classInfo) error {
	if !c.on {
		return nil
	}
	for _, ci := range classes {
		if !classAlive(ci, classOf) {
			continue
		}
		if ci.global == "" {
			return c.errf(stage, "live class with %d facets has no enumeration global", len(ci.facets))
		}
		for _, f := range ci.facets {
			if classOf[f] != ci {
				continue
			}
			if f.st.escaped != "" {
				return c.errf(stage, "class %s contains escaped facet %s (%s)", ci.global, f.name(), f.st.escaped)
			}
		}
	}
	return nil
}

// residuals asserts that RTE left no redundant translation chains
// (the ADE003 invariant: with RTE on, the residual analysis must come
// back empty).
func (c *checkCtx) residuals(stage string) error {
	if !c.on {
		return nil
	}
	for _, r := range analysis.Residuals(c.prog) {
		return c.errf(stage, "@%s: residual translation %s survived RTE", r.Fn.Name, r.Kind)
	}
	return nil
}
