package core

import (
	"fmt"
	"strings"

	"memoir/internal/ir"
	"memoir/internal/remarks"
	"memoir/internal/telemetry"
)

// This file holds the observability glue of the pass: helpers that
// translate internal site/facet state into the stable remark fields
// (function, site label, source line, telemetry join key). All
// emission goes through opts.Remarks, whose methods are no-ops on nil,
// so remark collection never changes a decision.

// emit forwards one remark to the configured emitter (nil-safe).
func (cx *adeCtx) emit(r remarks.Remark) { cx.opts.Remarks.Emit(r) }

// remarksOn reports whether this run collects remarks; use it to skip
// emission-only work (extra benefit evaluations, ordinal maps).
func (cx *adeCtx) remarksOn() bool { return cx.opts.Remarks.Enabled() }

// siteKey computes the allocation site's telemetry join key: the
// enclosing function plus the allocation's ordinal among the
// function's `new` instructions (stable across the transform, which
// never inserts allocations) and the nesting depth. Parameter sites
// have no allocation and therefore no key.
func (cx *adeCtx) siteKey(s *site) *telemetry.SiteKey {
	a := s.alloc()
	if a == nil {
		return nil
	}
	ords, ok := cx.allocOrds[s.fn]
	if !ok {
		ords = telemetry.AllocOrdinals(s.fn)
		cx.allocOrds[s.fn] = ords
	}
	o, ok := ords[a]
	if !ok {
		return nil
	}
	return &telemetry.SiteKey{Fn: s.fn.Name, Alloc: o, Depth: s.depth}
}

// siteLabel renders a site without its function prefix ("%h" or
// "%g[*]"), for the remark Site field (Fn carries the function).
func siteLabel(s *site) string {
	l := s.name()
	if i := strings.IndexByte(l, ':'); i >= 0 {
		return l[i+1:]
	}
	return l
}

// siteLine returns the `.mir` line of the site's allocation, 0 when
// unknown (parameter sites, synthesized IR).
func siteLine(s *site) int {
	if a := s.alloc(); a != nil {
		return a.Pos
	}
	return 0
}

// siteRemark pre-fills the positional fields of a remark about s.
func (cx *adeCtx) siteRemark(code, pass string, s *site) remarks.Remark {
	return remarks.Remark{
		Code: code, Pass: pass,
		Fn:   s.fn.Name,
		Site: siteLabel(s),
		Line: siteLine(s),
		Key:  cx.siteKey(s),
	}
}

// facetRemark pre-fills the positional fields of a remark about f.
func (cx *adeCtx) facetRemark(code, pass string, f *facet) remarks.Remark {
	r := cx.siteRemark(code, pass, f.st)
	r.Site = facetLabel(f)
	return r
}

// facetLabel renders a facet without its function prefix.
func facetLabel(f *facet) string {
	if f.kind == facetKeys {
		return siteLabel(f.st) + ".keys"
	}
	return siteLabel(f.st) + ".elems"
}

// irSize counts the program's instructions, the IR size metric each
// phase reports deltas of. Only called when remarks are enabled.
func irSize(prog *ir.Program) int {
	n := 0
	for _, name := range prog.Order {
		ir.WalkInstrs(prog.Funcs[name], func(*ir.Instr) { n++ })
	}
	return n
}

// emitClassRemarks reports the final enumeration decisions: one
// enum-create per enumerated allocation site (the adereport join
// anchor) and one interproc remark per class spanning functions.
func (cx *adeCtx) emitClassRemarks(classes []*classInfo, classOf map[*facet]*classInfo) {
	if !cx.remarksOn() {
		return
	}
	for _, ci := range classes {
		if !classAlive(ci, classOf) {
			continue
		}
		fns := map[string]bool{}
		var fnList []string
		seen := map[*site]bool{}
		for _, f := range ci.facets {
			if classOf[f] != ci {
				continue
			}
			if !fns[f.st.fn.Name] {
				fns[f.st.fn.Name] = true
				fnList = append(fnList, f.st.fn.Name)
			}
			if f.st.alloc() == nil || seen[f.st] {
				continue
			}
			seen[f.st] = true
			r := cx.facetRemark(remarks.CodeEnumCreate, "enumerate", f)
			r.Site = siteLabel(f.st)
			r.Message = "site enumerated"
			r.Args = []remarks.Arg{
				{Key: "enum", Val: ci.global},
				{Key: "benefit", Val: fmt.Sprint(ci.benefit)},
			}
			cx.emit(r)
		}
		if len(fnList) > 1 {
			cx.emit(remarks.Remark{
				Code: remarks.CodeInterproc, Pass: "interproc",
				Site:    ci.global,
				Message: "enumeration shared across functions",
				Args: []remarks.Arg{
					{Key: "fns", Val: strings.Join(fnList, ",")},
				},
			})
		}
	}
}
