package main

import (
	"fmt"
	"sort"
	"strings"

	"memoir/internal/adeprofile"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/remarks"
)

// Suggestion is one auto-generated `#pragma ade` line: where the
// static heuristic and the profile-guided compile disagree, the
// pragma that makes the static compile match the profiled decision.
// Inserting the pragma on the line before the allocation bakes the
// profile's verdict into the source, so later compiles need no
// profile file.
type Suggestion struct {
	Fn    string `json:"fn"`
	Value string `json:"value"` // allocation value name, e.g. "%vstats"
	Line  int    `json:"line"`  // 1-based source line of the `new`
	// Pragma is the literal line to insert, e.g. "#pragma ade noenumerate".
	Pragma string `json:"pragma"`
	Reason string `json:"reason"`
}

// decision is one allocation site's compile outcome, distilled from
// the remark stream.
type decision struct {
	fn, value string
	line      int
	enum      bool   // an enum-create remark named this site
	impl      string // the select-impl verdict, if any
}

// decisions collapses a remark stream into per-site outcomes.
func decisions(rs []remarks.Remark) map[string]*decision {
	out := map[string]*decision{}
	get := func(r remarks.Remark) *decision {
		k := "@" + r.Fn + " " + r.Site
		d, ok := out[k]
		if !ok {
			d = &decision{fn: r.Fn, value: r.Site, line: r.Line}
			out[k] = d
		}
		if d.line == 0 {
			d.line = r.Line
		}
		return d
	}
	for _, r := range rs {
		switch r.Code {
		case remarks.CodeEnumCreate:
			get(r).enum = true
		case remarks.CodeSelectImpl:
			get(r).impl = r.ArgVal("impl")
		}
	}
	return out
}

// compileRemarks parses src fresh and runs the ADE pass with remarks
// on, optionally under a profile.
func compileRemarks(build func() (*ir.Program, error), prof *adeprofile.Profile) ([]remarks.Remark, *core.Report, error) {
	prog, err := build()
	if err != nil {
		return nil, nil, err
	}
	em := remarks.NewEmitter()
	opts := core.DefaultOptions()
	opts.Remarks = em
	opts.SiteProfile = prof
	rep, err := pipeline.Transform(prog, opts)
	if err != nil {
		return nil, nil, err
	}
	return em.Remarks, rep, nil
}

// Suggest compiles the program twice — once static, once under the
// profile — and returns a pragma suggestion for every allocation site
// where the two compiles decided differently, the profile-guided
// compile's remark stream (for the join), and its verdict string
// ("weighted: ..." or "stale: ..."). A stale profile yields no
// suggestions: both compiles were static.
func Suggest(build func() (*ir.Program, error), prof *adeprofile.Profile) ([]Suggestion, []remarks.Remark, string, error) {
	staticRs, _, err := compileRemarks(build, nil)
	if err != nil {
		return nil, nil, "", fmt.Errorf("static compile: %w", err)
	}
	pgoRs, pgoRep, err := compileRemarks(build, prof)
	if err != nil {
		return nil, nil, "", fmt.Errorf("profile-guided compile: %w", err)
	}
	if strings.HasPrefix(pgoRep.Profile, "stale") {
		return nil, pgoRs, pgoRep.Profile, nil
	}
	sd, pd := decisions(staticRs), decisions(pgoRs)
	keys := map[string]bool{}
	for k := range sd {
		keys[k] = true
	}
	for k := range pd {
		keys[k] = true
	}
	var out []Suggestion
	for k := range keys {
		s, p := sd[k], pd[k]
		if s == nil {
			s = &decision{fn: p.fn, value: p.value, line: p.line}
		}
		if p == nil {
			p = &decision{fn: s.fn, value: s.value, line: s.line}
		}
		base := Suggestion{Fn: s.fn, Value: s.value, Line: s.line}
		if base.Line == 0 {
			base.Line = p.line
		}
		switch {
		case s.enum && !p.enum:
			sg := base
			sg.Pragma = "#pragma ade noenumerate"
			sg.Reason = "statically enumerated, but the profile observes no benefit"
			out = append(out, sg)
		case !s.enum && p.enum:
			sg := base
			sg.Pragma = "#pragma ade enumerate"
			sg.Reason = "statically skipped, but the profile observes benefit"
			out = append(out, sg)
		}
		if s.impl != p.impl && p.impl != "" && s.enum == p.enum {
			sg := base
			sg.Pragma = fmt.Sprintf("#pragma ade select(%s)", p.impl)
			if s.impl == "" {
				sg.Reason = "profile-guided compile selects an implementation the static compile leaves default"
			} else {
				sg.Reason = fmt.Sprintf("static compile selects %s; the profile steers %s", s.impl, p.impl)
			}
			out = append(out, sg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Pragma < out[j].Pragma
	})
	return out, pgoRs, pgoRep.Profile, nil
}
