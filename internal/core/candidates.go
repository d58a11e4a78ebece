package core

import (
	"fmt"
	"sort"
	"strings"

	"memoir/internal/ir"
	"memoir/internal/remarks"
)

// candidate is a group of facets (within one function) that will share
// an enumeration, per Algorithm 3.
type candidate struct {
	fi      *fnInfo
	facets  []*facet
	benefit int
	forced  bool

	// ext memoizes cx.extBenefit(facets) while extOK; add clears it.
	ext   int
	extOK bool
}

// add joins f to c.
func (c *candidate) add(f *facet) {
	c.facets = append(c.facets, f)
	c.extOK = false
	if forcedEnum(f) {
		c.forced = true
	}
}

func (c *candidate) has(f *facet) bool {
	for _, x := range c.facets {
		if x == f {
			return true
		}
	}
	return false
}

// eligible reports whether f may be enumerated at all.
func eligible(f *facet, opts Options) bool {
	if f == nil {
		return false
	}
	s := f.st
	if s.escaped != "" {
		return false
	}
	if s.staticDense && f.kind == facetKeys {
		// The keys are already their own identifiers; a runtime
		// enumeration on top would reintroduce the table static-enum
		// proved away.
		return false
	}
	if s.dir != nil && s.dir.NoEnumerate {
		return false
	}
	if s.param != nil && s.fn.Exported {
		return false // externally visible parameter (§III-F)
	}
	return true
}

// blocked reports whether directives forbid a and b sharing an
// enumeration.
func blocked(a, b *facet) bool {
	if a.st == b.st {
		return false // a site's own facets may always pair
	}
	check := func(x, y *facet) bool {
		d := x.st.dir
		if d == nil {
			return false
		}
		if d.NoShare {
			return true
		}
		yName := ""
		if ya := y.st.alloc(); ya != nil && ya.Result() != nil {
			yName = ya.Result().Name
		}
		for _, n := range d.NoShareWith {
			if n == yName {
				return true
			}
		}
		return false
	}
	return check(a, b) || check(b, a)
}

// shareGroup returns the directive share-group name of a facet's site.
func shareGroup(f *facet) string {
	if f.st.dir != nil {
		return f.st.dir.ShareGroup
	}
	return ""
}

// forcedEnum reports whether the site carries an `enumerate`
// directive.
func forcedEnum(f *facet) bool {
	return f.st.dir != nil && f.st.dir.Enumerate
}

// formCandidates runs Algorithm 3 for one function: greedy maximal
// groups that beat the sum of their parts, seeded by associative key
// facets, with union edges and share-group directives as mandatory
// merges, and propagators joining only established candidates.
//
// Parameter-rooted facets never form or join candidates directly —
// they enter classes only through Algorithm 5's argument unification —
// but the benefit evaluation extends through call linkage so callee
// redundancy counts (cx.extBenefit).
func formCandidates(cx *adeCtx, fi *fnInfo, report *Report) []*candidate {
	opts := cx.opts
	// Gather facets in deterministic program order.
	var keyFacets, elemFacets []*facet
	for _, s := range fi.sites {
		if s.param != nil {
			continue
		}
		if s.key != nil {
			if eligible(s.key, opts) {
				keyFacets = append(keyFacets, s.key)
			} else if s.escaped != "" {
				report.Skipped = append(report.Skipped, s.name()+": "+s.escaped)
				r := cx.siteRemark(remarks.CodeEnumSkip, "candidates", s)
				r.Message = s.escaped
				cx.emit(r)
			} else if s.dir != nil && s.dir.NoEnumerate {
				r := cx.siteRemark(remarks.CodePragma, "candidates", s)
				r.Message = "noenumerate directive excludes site"
				cx.emit(r)
			}
		}
		if s.elem != nil && eligible(s.elem, opts) {
			elemFacets = append(elemFacets, s.elem)
		}
		if cx.remarksOn() && s.dir != nil && s.dir.NoShare {
			r := cx.siteRemark(remarks.CodePragma, "candidates", s)
			r.Message = "noshare directive isolates site"
			cx.emit(r)
		}
	}

	// Mandatory merges: facets linked by a union instruction must land
	// in the same candidate (an enumerated set can only be unioned
	// word-wise with a set over the same identifiers), and share-group
	// directives force grouping.
	mandatory := newFacetUF()
	unionSites := map[*ir.Instr][]*facet{}
	for _, f := range keyFacets {
		for _, u := range f.unions {
			unionSites[u] = append(unionSites[u], f)
		}
	}
	for _, fs := range unionSites {
		for i := 1; i < len(fs); i++ {
			mandatory.union(fs[0], fs[i])
		}
	}
	allFacets := append(append([]*facet{}, keyFacets...), elemFacets...)
	groups := map[string][]*facet{}
	for _, f := range allFacets {
		if g := shareGroup(f); g != "" {
			groups[g] = append(groups[g], f)
		}
	}
	var groupNames []string
	for g := range groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	for _, g := range groupNames {
		fs := groups[g]
		for i := 1; i < len(fs); i++ {
			mandatory.union(fs[0], fs[i])
		}
		if cx.remarksOn() && len(fs) > 1 {
			var names []string
			for _, f := range fs {
				names = append(names, facetLabel(f))
			}
			r := cx.facetRemark(remarks.CodePragma, "candidates", fs[0])
			r.Message = "share group forces joint enumeration"
			r.Args = []remarks.Arg{
				{Key: "group", Val: g},
				{Key: "members", Val: strings.Join(names, ",")},
			}
			cx.emit(r)
		}
	}

	used := map[*facet]bool{}
	var cands []*candidate
	for _, seed := range keyFacets {
		if used[seed] {
			continue
		}
		c := &candidate{fi: fi}
		add := func(f *facet) {
			c.add(f)
			used[f] = true
		}
		add(seed)
		// Pull in everything mandatorily grouped with the seed.
		for _, f := range allFacets {
			if !used[f] && mandatory.find(f) == mandatory.find(seed) {
				add(f)
			}
		}

		if opts.Sharing {
			// Greedy expansion: keep sweeping while a facet improves
			// the candidate beyond the sum of its parts.
			for changed := true; changed; {
				changed = false
				for _, b := range keyFacets {
					if used[b] || !ir.TypesEqual(b.domain, seed.domain) || anyBlocked(c, b) {
						continue
					}
					if ok, bSum, bCup := joinGain(cx, c, b); ok {
						cx.emitShareJoin(seed, b, bSum, bCup)
						add(b)
						changed = true
					}
				}
				if opts.Propagation {
					for _, b := range elemFacets {
						if used[b] || !ir.TypesEqual(b.domain, seed.domain) || anyBlocked(c, b) {
							continue
						}
						if ok, bSum, bCup := joinGain(cx, c, b); ok {
							cx.emitShareJoin(seed, b, bSum, bCup)
							add(b)
							changed = true
						}
					}
				}
			}
		}

		// Emission-only: explain why the remaining same-domain facets
		// were not absorbed (declined merges and pragma blocks).
		// joinGain is pure, so re-evaluating it cannot change the
		// sweep's outcome.
		if cx.remarksOn() && opts.Sharing {
			rejects := keyFacets
			if opts.Propagation {
				rejects = allFacets
			}
			for _, b := range rejects {
				if used[b] || !ir.TypesEqual(b.domain, seed.domain) {
					continue
				}
				r := cx.facetRemark(remarks.CodeShareReject, "candidates", b)
				if anyBlocked(c, b) {
					r.Message = "sharing with " + facetLabel(seed) + " blocked by noshare directive"
				} else {
					_, bSum, bCup := joinGain(cx, c, b)
					r.Message = "sharing with " + facetLabel(seed) + " declined: union benefit does not beat sum"
					r.Args = []remarks.Arg{
						{Key: "sum", Val: fmt.Sprint(bSum)},
						{Key: "union", Val: fmt.Sprint(bCup)},
					}
				}
				cx.emit(r)
			}
		}

		c.benefit = cx.candBenefit(c)
		if c.forced || opts.ForceAll || c.benefit > 0 {
			cands = append(cands, c)
			if cx.remarksOn() && c.forced && c.benefit <= 0 {
				r := cx.facetRemark(remarks.CodePragma, "candidates", seed)
				r.Message = "enumerate directive forces enumeration despite non-positive benefit"
				r.Args = []remarks.Arg{{Key: "benefit", Val: fmt.Sprint(c.benefit)}}
				cx.emit(r)
			}
		} else {
			for _, f := range c.facets {
				// Leave non-seeds available for other candidates.
				if f != seed {
					used[f] = false
				}
			}
			report.Skipped = append(report.Skipped, seed.name()+": no benefit")
			r := cx.facetRemark(remarks.CodeEnumSkip, "candidates", seed)
			r.Message = "no benefit"
			r.Args = []remarks.Arg{{Key: "benefit", Val: fmt.Sprint(c.benefit)}}
			cx.emit(r)
		}
	}
	return cands
}

func anyBlocked(c *candidate, b *facet) bool {
	for _, f := range c.facets {
		if blocked(f, b) {
			return true
		}
	}
	return false
}

// joinGain implements Algorithm 3's test: the union's benefit must be
// greater than the sum of its parts. It returns both scores so the
// share remarks can carry the heuristic's actual inputs.
//
// Of the three benefits only the union's is new at each probe: the
// candidate's changes only when a facet joins it, and a single facet's
// never changes under one linkage, so both come from memos.
func joinGain(cx *adeCtx, c *candidate, b *facet) (ok bool, bSum, bCup int) {
	bSum = cx.candBenefit(c) + cx.facetBenefit(b)
	cx.ext.join = append(append(cx.ext.join[:0], c.facets...), b)
	bCup = cx.extBenefit(cx.ext.join)
	if cx.onJoinGain != nil {
		cx.onJoinGain(c, b, bSum, bCup)
	}
	return bCup > bSum, bSum, bCup
}

// candBenefit is cx.extBenefit(c.facets), memoized on c.
func (cx *adeCtx) candBenefit(c *candidate) int {
	if !c.extOK {
		c.ext, c.extOK = cx.extBenefit(c.facets), true
	}
	return c.ext
}

// facetBenefit is cx.extBenefit of f alone, memoized on cx.
func (cx *adeCtx) facetBenefit(f *facet) int {
	b, ok := cx.facetBen[f]
	if !ok {
		b = cx.extBenefit([]*facet{f})
		cx.facetBen[f] = b
	}
	return b
}

// emitShareJoin records one accepted Algorithm-3 merge with the
// heuristic scores that justified it.
func (cx *adeCtx) emitShareJoin(seed, b *facet, bSum, bCup int) {
	if !cx.remarksOn() {
		return
	}
	r := cx.facetRemark(remarks.CodeShareJoin, "candidates", b)
	r.Message = "shares enumeration with " + facetLabel(seed)
	r.Args = []remarks.Arg{
		{Key: "sum", Val: fmt.Sprint(bSum)},
		{Key: "union", Val: fmt.Sprint(bCup)},
	}
	cx.emit(r)
}

// facetUF is a small union-find over facets.
type facetUF struct {
	parent map[*facet]*facet
}

func newFacetUF() *facetUF { return &facetUF{parent: map[*facet]*facet{}} }

func (u *facetUF) find(f *facet) *facet {
	p, ok := u.parent[f]
	if !ok || p == f {
		u.parent[f] = f
		return f
	}
	r := u.find(p)
	u.parent[f] = r
	return r
}

func (u *facetUF) union(a, b *facet) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
