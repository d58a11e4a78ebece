package core

import (
	"memoir/internal/ir"
)

// classEval evaluates a prospective enumeration class — a set of
// facets that would share one enumeration — inside one function. It
// implements the semantics of Algorithm 2: identifier-valued values
// are the would-be ToDec sources, wants-id positions are ToEnc∪ToAdd,
// and a translation is redundant (trimmed) where the two meet.
//
// One classEval is scratch owned by one adeCtx: every evaluation
// clears its maps and refills them, so Algorithm 3's many probes do
// not allocate a fresh set of maps each. It is never shared between
// ADE runs, which may execute concurrently.
type classEval struct {
	fi      *fnInfo
	wantsID map[patchPoint]bool // ToEnc ∪ ToAdd
	idVals  map[*ir.Value]bool  // identifier-valued after transform
	unionIn map[*ir.Instr]int   // union instrs per class occurrence
	// weight returns the benefit weight of a use site: 1 statically,
	// or the dynamic execution count under the profile-guided
	// heuristic (§III-C's sketched extension).
	weight func(*ir.Instr) uint64
}

func staticWeight(*ir.Instr) uint64 { return 1 }

func newClassEval() *classEval {
	return &classEval{
		wantsID: map[patchPoint]bool{},
		idVals:  map[*ir.Value]bool{},
		unionIn: map[*ir.Instr]int{},
	}
}

// reset loads the class made of facets, all in fi's function.
func (ce *classEval) reset(fi *fnInfo, facets []*facet, weight func(*ir.Instr) uint64) {
	if weight == nil {
		weight = staticWeight
	}
	ce.fi, ce.weight = fi, weight
	clear(ce.wantsID)
	clear(ce.idVals)
	clear(ce.unionIn)
	for _, f := range facets {
		for _, pp := range f.toEnc {
			ce.wantsID[pp] = true
		}
		for _, pp := range f.toAdd {
			ce.wantsID[pp] = true
		}
		for _, v := range f.idSources {
			ce.idVals[v] = true
		}
		for _, u := range f.unions {
			ce.unionIn[u]++
		}
	}
	ce.fixpoint()
}

// fixpoint propagates identifier-ness forward through phis and
// selects: a phi with at least one identifier-valued input becomes
// identifier-valued (its other inputs are coerced with @add at their
// defining edges).
func (ce *classEval) fixpoint() {
	changed := true
	for changed {
		changed = false
		for v := range ce.idVals {
			for _, u := range ce.fi.ui.Uses(v) {
				in := u.Instr
				if in == nil || !u.IsBase() {
					continue
				}
				var res *ir.Value
				switch in.Op {
				case ir.OpPhi:
					res = in.Result()
				case ir.OpSelect:
					if u.Arg != 0 { // not the condition
						res = in.Result()
					}
				}
				if res != nil && !ce.idVals[res] && enumerableKey(res.Type) {
					ce.idVals[res] = true
					changed = true
				}
			}
		}
	}
}

// ppFromUse converts a def-use record into the patch point it uses.
func ppFromUse(u ir.Use) (patchPoint, bool) {
	switch {
	case u.Instr != nil:
		return patchPoint{instr: u.Instr, arg: u.Arg, path: u.Path}, true
	case u.Arg == ir.UseLoopColl:
		fe, ok := u.User.(*ir.ForEach)
		if !ok {
			return patchPoint{}, false
		}
		return patchPoint{loop: fe, path: u.Path}, true
	}
	return patchPoint{}, false
}

// trims counts the redundant translations FINDREDUNDANT would collect:
// uses of identifier-valued values that land on wants-id positions
// (enc∘dec and add∘dec elisions), identifier-to-identifier equality
// comparisons (the injectivity rewrite), and same-class unions.
func (ce *classEval) trims() int {
	var n uint64
	for v := range ce.idVals {
		for _, u := range ce.fi.ui.Uses(v) {
			pp, ok := ppFromUse(u)
			if !ok {
				continue
			}
			in := u.Instr
			if ce.wantsID[pp] {
				if in != nil {
					n += ce.weight(in)
				} else {
					n++
				}
				continue
			}
			if in == nil {
				continue
			}
			switch in.Op {
			case ir.OpCmp:
				if in.Cmp == ir.CmpEq || in.Cmp == ir.CmpNe {
					other := in.Args[1-u.Arg].Base
					if ce.idVals[other] {
						// Both sides counted, matching the paper's two
						// trims.
						n += ce.weight(in)
					}
				}
			case ir.OpPhi, ir.OpSelect:
				// Flows on; neither a trim nor a cost here.
			}
		}
	}
	for u, cnt := range ce.unionIn {
		if cnt >= 2 {
			// Both operands in the class: the whole element-wise
			// re-translation is elided.
			n += 2 * ce.weight(u)
		}
	}
	if n > 1<<30 {
		n = 1 << 30
	}
	return int(n)
}

// benefit evaluates a facet group of fi's function per Algorithm 3's
// BENEFIT: the trim count of the unioned use sets, weighted statically
// (nil weight) or by profile.
func (ce *classEval) benefit(fi *fnInfo, facets []*facet, weight func(*ir.Instr) uint64) int {
	if len(facets) == 0 {
		return 0
	}
	ce.reset(fi, facets, weight)
	return ce.trims()
}
