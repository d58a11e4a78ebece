package core

import (
	"fmt"
	"sort"

	"memoir/internal/ir"
	"memoir/internal/remarks"
)

// classInfo is one enumeration equivalence class: facets across
// functions that share a single enumeration, stored in a global
// (§III-F).
type classInfo struct {
	id      int
	global  string
	domain  ir.Type
	facets  []*facet
	benefit int
}

// interproc runs Algorithm 5: it unifies collection arguments with
// callee parameters via union-find, clones callees whose parameters
// are enumerated for only some callers (or which are externally
// visible), and assigns an enumeration global per class.
type interproc struct {
	cx     *adeCtx
	prog   *ir.Program
	opts   Options
	report *Report

	fis    map[*ir.Func]*fnInfo
	cands  map[*ir.Func][]*candidate
	clones map[string]string // original name -> clone name
}

// callEdge is one collection argument flowing into a callee parameter.
type callEdge struct {
	caller  *ir.Func
	call    *ir.Instr
	argIdx  int
	argSite *site // depth-0 site of the argument, nil if untracked
	callee  *ir.Func
}

func (ip *interproc) siteAt(fn *ir.Func, v *ir.Value, depth int) *site {
	fi := ip.fis[fn]
	if fi == nil {
		return nil
	}
	for _, s := range fi.sites {
		if s.depth == depth && s.redefs[v] {
			return s
		}
	}
	return nil
}

func (ip *interproc) paramSite(fn *ir.Func, idx, depth int) *site {
	fi := ip.fis[fn]
	if fi == nil || idx >= len(fn.Params) {
		return nil
	}
	p := fn.Params[idx]
	for _, s := range fi.sites {
		if s.param == p && s.depth == depth {
			return s
		}
	}
	return nil
}

func (ip *interproc) edges() []callEdge {
	var out []callEdge
	for _, name := range ip.prog.Order {
		fn := ip.prog.Funcs[name]
		ir.WalkInstrs(fn, func(in *ir.Instr) {
			if in.Op != ir.OpCall {
				return
			}
			callee := ip.prog.Func(in.Callee)
			if callee == nil {
				return
			}
			for i, a := range in.Args {
				if ir.AsColl(a.InnerType()) == nil || len(a.Path) > 0 || a.Base == nil {
					continue
				}
				out = append(out, callEdge{
					caller: fn, call: in, argIdx: i,
					argSite: ip.siteAt(fn, a.Base, 0), callee: callee,
				})
			}
		})
	}
	return out
}

// facetsOfRoot returns all facets of every depth of the site's root.
func (ip *interproc) facetsOfRoot(s *site) map[int][2]*facet {
	out := map[int][2]*facet{}
	fi := ip.fis[s.fn]
	for _, o := range fi.sites {
		if sameRoot(o, s) {
			out[o.depth] = [2]*facet{o.key, o.elem}
		}
	}
	return out
}

// resolve runs the optimistic unification fixpoint and returns the
// final classes, cloning callees as needed. It may restart after each
// clone since cloning changes the call graph.
func (ip *interproc) resolve() ([]*classInfo, map[*facet]*classInfo, error) {
	for round := 0; ; round++ {
		if round > 64 {
			return nil, nil, fmt.Errorf("ade: interprocedural unification did not converge")
		}
		classes, classOf, violation := ip.tryResolve()
		if violation == nil {
			return classes, classOf, nil
		}
		if err := ip.applyClone(*violation); err != nil {
			return nil, nil, err
		}
	}
}

// violationInfo describes a callee whose parameter is enumerated for
// only some callers (or is externally visible) and must be cloned.
type violationInfo struct {
	callee *ir.Func
	// enumCalls are the call instructions that must retarget to the
	// transformed clone.
	enumCalls []*ir.Instr
}

func (ip *interproc) tryResolve() ([]*classInfo, map[*facet]*classInfo, *violationInfo) {
	uf := newFacetUF()
	// Flags are stored on member facets (not union-find roots, which
	// change as unification proceeds) and tested via representative
	// comparison.
	enumFacets := map[*facet]bool{}
	poisonFacets := map[*facet]bool{}
	inSet := func(set map[*facet]bool, f *facet) bool {
		if f == nil {
			return false
		}
		r := uf.find(f)
		for g := range set {
			if uf.find(g) == r {
				return true
			}
		}
		return false
	}
	markEnum := func(f *facet) { enumFacets[f] = true }

	for _, fn := range ip.fnsInOrder() {
		for _, c := range ip.cands[fn] {
			for i := 1; i < len(c.facets); i++ {
				uf.union(c.facets[0], c.facets[i])
			}
			markEnum(c.facets[0])
		}
	}
	isEnum := func(f *facet) bool { return inSet(enumFacets, f) }
	isPoisoned := func(f *facet) bool { return inSet(poisonFacets, f) }

	edges := ip.edges()
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if e.argSite == nil {
				continue
			}
			argF := ip.facetsOfRoot(e.argSite)
			pSite := ip.paramSite(e.callee, e.argIdx, 0)
			if pSite == nil {
				continue
			}
			parF := ip.facetsOfRoot(pSite)
			for depth, afs := range argF {
				pfs, ok := parF[depth]
				if !ok {
					continue
				}
				for k := 0; k < 2; k++ {
					af, pf := afs[k], pfs[k]
					if af == nil || pf == nil {
						continue
					}
					switch {
					case isEnum(af):
						if pf.st.escaped != "" {
							// The collection escapes inside the callee:
							// no clone can fix that. Drop the
							// enumeration.
							poisonFacets[af] = true
							continue
						}
						if e.callee.Exported {
							// Resolved by cloning below.
							continue
						}
						if uf.find(af) != uf.find(pf) {
							uf.union(af, pf)
							markEnum(af)
							changed = true
						}
					case isEnum(pf):
						// The parameter joined a class through another
						// caller; pull this caller's collection in when
						// possible (undirected unification), otherwise
						// leave the mixed-caller case to cloning.
						if !eligible(af, ip.opts) {
							continue
						}
						if uf.find(af) != uf.find(pf) {
							uf.union(af, pf)
							markEnum(af)
							changed = true
						}
					}
				}
			}
		}
	}

	// Check for mixed callers: a callee parameter in an enumerated
	// class where some call passes an untracked or non-enumerated
	// argument. Such callees are cloned (§III-F).
	byCallee := map[*ir.Func][]callEdge{}
	for _, e := range edges {
		byCallee[e.callee] = append(byCallee[e.callee], e)
	}
	var callees []*ir.Func
	for c := range byCallee {
		callees = append(callees, c)
	}
	sort.Slice(callees, func(i, j int) bool { return callees[i].Name < callees[j].Name })
	for _, callee := range callees {
		ces := byCallee[callee]
		needsClone := false
		enumCalls := map[*ir.Instr]bool{}
		for _, e := range ces {
			argEnum := false
			if e.argSite != nil {
				afs := ip.facetsOfRoot(e.argSite)
				for _, fs := range afs {
					for k := 0; k < 2; k++ {
						if isEnum(fs[k]) && !isPoisoned(fs[k]) {
							argEnum = true
						}
					}
				}
			}
			if argEnum {
				enumCalls[e.call] = true
				if callee.Exported {
					// An exported callee cannot be transformed in
					// place (§III-F): enumerated callers get a clone.
					needsClone = true
				}
			}
			pSite := ip.paramSite(callee, e.argIdx, 0)
			if pSite == nil {
				continue
			}
			pfs := ip.facetsOfRoot(pSite)
			paramEnum := false
			for _, fs := range pfs {
				for k := 0; k < 2; k++ {
					if isEnum(fs[k]) && !isPoisoned(fs[k]) {
						paramEnum = true
					}
				}
			}
			if paramEnum && !argEnum {
				// Mixed callers: this call would pass plain data into a
				// transformed parameter.
				needsClone = true
			}
		}
		if needsClone && len(enumCalls) > 0 {
			var calls []*ir.Instr
			for c := range enumCalls {
				calls = append(calls, c)
			}
			sort.Slice(calls, func(i, j int) bool { return fmt.Sprintf("%p", calls[i]) < fmt.Sprintf("%p", calls[j]) })
			return nil, nil, &violationInfo{callee: callee, enumCalls: calls}
		}
	}

	// Materialize classes.
	groups := map[*facet][]*facet{}
	for _, fn := range ip.fnsInOrder() {
		fi := ip.fis[fn]
		for _, s := range fi.sites {
			for _, f := range []*facet{s.key, s.elem} {
				if f == nil {
					continue
				}
				if isEnum(f) && !isPoisoned(f) {
					groups[uf.find(f)] = append(groups[uf.find(f)], f)
				}
			}
		}
	}
	var roots []*facet
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0].name() < groups[roots[j]][0].name() })

	var classes []*classInfo
	classOf := map[*facet]*classInfo{}
	for i, r := range roots {
		ci := &classInfo{id: i, global: fmt.Sprintf("ade%d", i), facets: groups[r], domain: groups[r][0].domain}
		perFn := map[*fnInfo][]*facet{}
		for _, f := range ci.facets {
			classOf[f] = ci
			perFn[ip.fis[f.st.fn]] = append(perFn[ip.fis[f.st.fn]], f)
		}
		for fi, fs := range perFn {
			ci.benefit += ip.cx.ce.benefit(fi, fs, ip.cx.weightFn(fi.fn))
		}
		classes = append(classes, ci)
	}
	return classes, classOf, nil
}

func (ip *interproc) fnsInOrder() []*ir.Func {
	var out []*ir.Func
	for _, name := range ip.prog.Order {
		if fi := ip.fis[ip.prog.Funcs[name]]; fi != nil {
			out = append(out, fi.fn)
		}
	}
	return out
}

// applyClone clones a mixed-caller (or exported) callee, retargets the
// enumerated calls to the clone, and analyzes the clone.
func (ip *interproc) applyClone(v violationInfo) error {
	cloneName := v.callee.Name + "$enum"
	for i := 2; ip.prog.Func(cloneName) != nil; i++ {
		cloneName = fmt.Sprintf("%s$enum%d", v.callee.Name, i)
	}
	clone := ir.CloneFunc(v.callee, cloneName)
	ip.prog.Add(clone)
	ip.report.Cloned = append(ip.report.Cloned, fmt.Sprintf("@%s -> @%s", v.callee.Name, cloneName))
	ip.cx.emit(remarks.Remark{
		Code: remarks.CodeInterproc, Pass: "interproc",
		Fn:      v.callee.Name,
		Site:    "@" + cloneName,
		Line:    v.callee.Pos,
		Message: "callee cloned for enumerated callers",
		Args: []remarks.Arg{
			{Key: "calls", Val: fmt.Sprint(len(v.enumCalls))},
		},
	})
	ip.clones[v.callee.Name] = cloneName
	// Clones inherit the original's profile (identical instruction
	// walk order).
	orig := v.callee.Name
	if o, ok := ip.cx.fnAlias[orig]; ok {
		orig = o
	}
	ip.cx.fnAlias[cloneName] = orig
	for _, call := range v.enumCalls {
		call.Callee = cloneName
	}
	// Analyze the clone, refresh linkage, and form its local
	// candidates.
	fi := analyzeFunc(clone)
	ip.fis[clone] = fi
	ip.cx.rebuildLinkage()
	ip.cands[clone] = formCandidates(ip.cx, fi, ip.report)
	// Caller use-info is unchanged (only Callee strings were edited).
	return nil
}
