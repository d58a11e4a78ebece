package core

import (
	"sort"

	"memoir/internal/analysis"
	"memoir/internal/ir"
)

// A site is one enumerable collection level: a (collection, nesting
// depth) pair. Depth 0 is the allocation (or parameter) itself; depth
// d addresses the collections reached through d operand-path steps
// (§III-G: all collections at a nesting level share an enumeration).
type site struct {
	fn *ir.Func
	// allocs are the allocation instructions of this root; more than
	// one when allocations are merged by phis (the worklist pattern:
	// a fresh frontier per level phi-merged with the previous one).
	// Empty for parameter sites.
	allocs []*ir.Instr
	param  *ir.Value // collection-typed parameter, nil for allocations
	// rootID identifies the (merged) root across the depths of one
	// collection.
	rootID any
	depth  int

	// collType is the collection type at this depth.
	collType *ir.CollType

	// redefs is the set of SSA values denoting the base collection.
	redefs map[*ir.Value]bool

	escaped string // non-empty: reason this site must not be transformed
	dir     *ir.Directive

	// staticDense is set by the static-enum sub-pass: the interval
	// analysis proved the keys dense, the dense implementation is
	// already selected, and the key facet must not enter a runtime
	// enumeration on top of it.
	staticDense bool

	// facets filled by analyze.
	key  *facet // enumerate the keys (associative collections only)
	elem *facet // propagate identifiers into the elements (§III-E)
}

func (s *site) alloc() *ir.Instr {
	if len(s.allocs) == 0 {
		return nil
	}
	return s.allocs[0]
}

func (s *site) name() string {
	base := "?"
	switch {
	case s.alloc() != nil && s.alloc().Result() != nil:
		base = "%" + s.alloc().Result().Name
	case s.param != nil:
		base = "%" + s.param.Name + " (param)"
	}
	d := ""
	for i := 0; i < s.depth; i++ {
		d += "[*]"
	}
	return "@" + s.fn.Name + ":" + base + d
}

// facetKind distinguishes enumerating a site's keys from propagating
// into its elements.
type facetKind uint8

const (
	facetKeys facetKind = iota
	facetElems
)

// patchPoint addresses one use position to patch: either an argument
// (or nested path index) of an instruction, or a path index of a
// for-each collection operand.
//
// A patchPoint is its own identity: it is comparable, and two points
// address the same position exactly when they are equal, so sets and
// maps of positions key on the struct itself. Loop points always
// carry arg 0.
type patchPoint struct {
	instr *ir.Instr   // user instruction, nil for for-each coll uses
	loop  *ir.ForEach // user loop for coll-path uses
	arg   int         // argument index (ignored for loop uses)
	path  int         // -1: the operand base; >=0: path index position
}

func (p patchPoint) operand() *ir.Operand {
	if p.loop != nil {
		return &p.loop.Coll
	}
	return &p.instr.Args[p.arg]
}

// value returns the value currently at this position.
func (p patchPoint) value() *ir.Value {
	o := p.operand()
	if p.path < 0 {
		return o.Base
	}
	return o.Path[p.path].Val
}

// setValue rewrites the position to use v.
func (p patchPoint) setValue(v *ir.Value) {
	o := p.operand()
	if p.path < 0 {
		o.Base = v
	} else {
		o.Path[p.path].Val = v
	}
}

// facet is one enumerable domain of a site, with the use sets of
// Algorithms 1 and 4.
type facet struct {
	st     *site
	kind   facetKind
	domain ir.Type

	// toEnc are search-key positions: after transformation they must
	// receive identifiers of values already in the enumeration.
	toEnc []patchPoint
	// toAdd are inserted-key (or, for propagators, written-element)
	// positions: they must receive identifiers, adding to the
	// enumeration as needed.
	toAdd []patchPoint
	// idSources are values that hold identifiers after transformation
	// (for-each bindings, propagator read results). ToDec is the set
	// of their uses.
	idSources []*ir.Value
	// unions are union instructions where this facet's site is an
	// operand; both operands must land in the same class.
	unions []*ir.Instr
}

func (f *facet) name() string {
	if f.kind == facetKeys {
		return f.st.name() + ".keys"
	}
	return f.st.name() + ".elems"
}

// fnInfo bundles the per-function analysis.
type fnInfo struct {
	fn    *ir.Func
	ui    *ir.UseInfo
	sites []*site
}

// typeAtDepth walks a collection type d levels down through element
// types.
func typeAtDepth(t *ir.CollType, d int) *ir.CollType {
	cur := t
	for i := 0; i < d; i++ {
		next := ir.AsColl(cur.Elem)
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// dirAtDepth resolves the effective directive for a nesting depth.
func dirAtDepth(d *ir.Directive, depth int) *ir.Directive {
	for i := 0; i < depth && d != nil; i++ {
		d = d.Inner
	}
	return d
}

// analyzeFunc discovers every site in fn and computes its facets.
func analyzeFunc(fn *ir.Func) *fnInfo {
	fi := &fnInfo{fn: fn, ui: ir.ComputeUses(fn)}

	addRoots := func(root *ir.Value, alloc *ir.Instr, dir *ir.Directive) {
		ct := ir.AsColl(root.Type)
		if ct == nil || ct.Kind == ir.KEnum || ct.Kind == ir.KTuple {
			return
		}
		redefs := map[*ir.Value]bool{}
		for _, v := range fi.ui.RedefsFrom(root) {
			redefs[v] = true
		}
		var allocs []*ir.Instr
		var param *ir.Value
		var rootID any
		if alloc != nil {
			allocs = []*ir.Instr{alloc}
			rootID = alloc
		} else {
			param = root
			rootID = root
		}
		for depth := 0; ; depth++ {
			dct := typeAtDepth(ct, depth)
			if dct == nil {
				break
			}
			s := &site{
				fn: fn, allocs: allocs, param: param, rootID: rootID, depth: depth,
				collType: dct, redefs: redefs, dir: dirAtDepth(dir, depth),
			}
			fi.sites = append(fi.sites, s)
			if ir.AsColl(dct.Elem) == nil {
				break
			}
		}
	}

	for _, in := range ir.Allocations(fn) {
		addRoots(in.Result(), in, in.Dir)
	}
	for _, p := range fn.Params {
		if ir.AsColl(p.Type) != nil {
			addRoots(p, nil, nil)
		}
	}

	mergeAliasedRoots(fi)

	for _, s := range fi.sites {
		analyzeSite(fi, s)
	}
	applyEscapes(fi)
	return fi
}

// applyEscapes imports the escape decisions of the dataflow analysis
// package into the sites: a faceted site whose level escapes must not
// be transformed. Only faceted sites receive the mark — facetless
// sites never form candidates, and keeping them unmarked matches the
// historical in-place analysis.
func applyEscapes(fi *fnInfo) {
	esc := analysis.Escapes(fi.fn, fi.ui)
	for _, s := range fi.sites {
		if s.key == nil && s.elem == nil {
			continue
		}
		var roots []*ir.Value
		for _, a := range s.allocs {
			if r := a.Result(); r != nil {
				roots = append(roots, r)
			}
		}
		if s.param != nil {
			roots = append(roots, s.param)
		}
		for _, r := range roots {
			if reason := esc.Reason(r, s.depth); reason != "" {
				s.escape(reason)
				break
			}
		}
	}
}

// mergeAliasedRoots fuses roots whose redef webs intersect — a phi
// merging two allocations means they are one logical collection (the
// worklist pattern allocates a fresh frontier per level). Merging a
// parameter root with an allocation root keeps the parameter identity
// so interprocedural rules still apply.
func mergeAliasedRoots(fi *fnInfo) {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(fi.sites) && !changed; i++ {
			a := fi.sites[i]
			for j := i + 1; j < len(fi.sites); j++ {
				b := fi.sites[j]
				if a.rootID == b.rootID || a.depth != 0 || b.depth != 0 {
					continue
				}
				intersect := false
				for v := range a.redefs {
					if b.redefs[v] {
						intersect = true
						break
					}
				}
				if !intersect {
					continue
				}
				// Merge root b into root a across all depths.
				union := map[*ir.Value]bool{}
				for v := range a.redefs {
					union[v] = true
				}
				for v := range b.redefs {
					union[v] = true
				}
				var keep []*site
				for _, s := range fi.sites {
					switch s.rootID {
					case a.rootID:
						s.redefs = union
						keep = append(keep, s)
					case b.rootID:
						// Fold allocation/param identity and directives
						// into a's site at the same depth.
						for _, as := range fi.sites {
							if as.rootID == a.rootID && as.depth == s.depth {
								as.allocs = append(as.allocs, s.allocs...)
								if as.param == nil {
									as.param = s.param
								}
								if as.dir == nil {
									as.dir = s.dir
								}
								if as.escaped == "" {
									as.escaped = s.escaped
								}
							}
						}
					default:
						keep = append(keep, s)
					}
				}
				fi.sites = keep
				changed = true
				break
			}
		}
	}
}

// analyzeSite computes escape status and the use sets of Algorithms 1
// and 4 for one site.
func analyzeSite(fi *fnInfo, s *site) {
	ct := s.collType
	// Key facet: associative collections with enumerable key domains.
	if ct.Assoc() && enumerableKey(ct.Key) {
		s.key = &facet{st: s, kind: facetKeys, domain: ct.Key}
	}
	// Element facet: maps and sequences whose elements hold an
	// enumerable scalar domain (§III-E).
	if (ct.Kind == ir.KMap || ct.Kind == ir.KSeq) && ct.Elem != nil && enumerableKey(ct.Elem) {
		s.elem = &facet{st: s, kind: facetElems, domain: ct.Elem}
	}
	if s.key == nil && s.elem == nil {
		return
	}

	d := s.depth
	// Deterministic patch-point order: redefs is a map, and the order
	// toEnc/toAdd are discovered in decides remark emission order.
	bases := make([]*ir.Value, 0, len(s.redefs))
	for base := range s.redefs {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i].Name < bases[j].Name })
	for _, base := range bases {
		for _, u := range fi.ui.Uses(base) {
			if !u.IsBase() {
				continue
			}
			switch {
			case u.Instr != nil:
				analyzeInstrUse(fi, s, u.Instr, u.Arg, d)
			case u.Arg == ir.UseLoopColl:
				fe, _ := u.User.(*ir.ForEach)
				if fe != nil {
					analyzeLoopUse(fi, s, fe, d)
				}
			}
		}
	}
}

func (s *site) escape(reason string) {
	if s.escaped == "" {
		s.escaped = reason
	}
}

// analyzeInstrUse handles one instruction whose operand 0 (or an
// argument position) is a redef of s's base collection.
func analyzeInstrUse(fi *fnInfo, s *site, in *ir.Instr, argIdx int, d int) {
	// Only the collection operand position drives Algorithm 1; a redef
	// appearing elsewhere is data flow of the collection handle itself.
	// Escapes through those positions (call arguments, stores into
	// other collections, returns, emits) are detected by the analysis
	// package and applied in applyEscapes.
	if argIdx != 0 {
		if in.Op == ir.OpUnion && argIdx == 1 && s.key != nil {
			L := pathLen(in.Args[1])
			switch {
			case L == d:
				s.key.unions = append(s.key.unions, in)
			case L > d:
				// The source operand reaches through this level:
				// its path index at position d is a search key
				// (Algorithm 1's nesting case, source side).
				ix := in.Args[1].Path[d]
				if ix.Kind == ir.IdxValue {
					s.key.toEnc = append(s.key.toEnc, patchPoint{instr: in, arg: 1, path: d})
				}
			}
		}
		return
	}

	L := pathLen(in.Args[0])
	switch {
	case L > d:
		// An access through this site's level: the path index at
		// position d is a search key of this site (Algorithm 1's
		// nesting case).
		ix := in.Args[0].Path[d]
		if ix.Kind == ir.IdxValue && s.key != nil {
			s.key.toEnc = append(s.key.toEnc, patchPoint{instr: in, arg: 0, path: d})
		}
		return
	case L < d:
		// An op on a shallower level touches this site only through
		// aliasing (nested reads, returns, calls) — escape territory,
		// covered by applyEscapes.
		return
	}

	// L == d: the op applies directly to this site's collection.
	switch in.Op {
	case ir.OpRead:
		if s.st().Kind == ir.KMap && s.key != nil {
			s.key.toEnc = append(s.key.toEnc, patchPoint{instr: in, arg: 1, path: -1})
		}
		if s.elem != nil {
			s.elem.idSources = append(s.elem.idSources, in.Result())
		}
	case ir.OpHas, ir.OpRemove:
		if s.key != nil {
			s.key.toEnc = append(s.key.toEnc, patchPoint{instr: in, arg: 1, path: -1})
		}
	case ir.OpWrite:
		if s.st().Kind == ir.KMap && s.key != nil {
			s.key.toEnc = append(s.key.toEnc, patchPoint{instr: in, arg: 1, path: -1})
		}
		if s.elem != nil {
			s.elem.toAdd = append(s.elem.toAdd, patchPoint{instr: in, arg: 2, path: -1})
		}
	case ir.OpInsert:
		if s.st().Kind == ir.KSeq {
			if s.elem != nil {
				s.elem.toAdd = append(s.elem.toAdd, patchPoint{instr: in, arg: 2, path: -1})
			}
		} else if s.key != nil {
			s.key.toAdd = append(s.key.toAdd, patchPoint{instr: in, arg: 1, path: -1})
		}
	case ir.OpUnion:
		if s.key != nil {
			s.key.unions = append(s.key.unions, in)
		}
	case ir.OpClear, ir.OpSize:
		// No keys involved. OpRet/OpCall escapes are applyEscapes'
		// business.
	}
}

func (s *site) st() *ir.CollType { return s.collType }

func pathLen(o ir.Operand) int { return len(o.Path) }

// analyzeLoopUse handles a for-each whose collection operand is a
// redef of s's base.
func analyzeLoopUse(fi *fnInfo, s *site, fe *ir.ForEach, d int) {
	L := pathLen(fe.Coll)
	switch {
	case L > d:
		ix := fe.Coll.Path[d]
		if ix.Kind == ir.IdxValue && s.key != nil {
			s.key.toEnc = append(s.key.toEnc, patchPoint{loop: fe, path: d})
		}
	case L == d:
		// Iterating this level: the key binding becomes an identifier
		// (Algorithm 1's for-each case); for propagators the value
		// binding does too (Algorithm 4).
		if s.key != nil {
			s.key.idSources = append(s.key.idSources, fe.Key)
			if s.st().Kind == ir.KSet {
				// Sets bind the element to both key and value.
				s.key.idSources = append(s.key.idSources, fe.Val)
			}
		}
		if s.elem != nil {
			s.elem.idSources = append(s.elem.idSources, fe.Val)
		}
		// Iterating one level above a nested collection binds the
		// nested collection to the value: an untracked alias. The
		// analysis package records it against the next depth
		// (analysis.EscLoopBound) and applyEscapes imports it.
	}
}

func sameRoot(a, b *site) bool {
	return a.fn == b.fn && a.rootID == b.rootID
}
