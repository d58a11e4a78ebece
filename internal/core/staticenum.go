package core

import (
	"fmt"

	"memoir/internal/analysis"
	"memoir/internal/collections"
	"memoir/internal/ir"
	"memoir/internal/remarks"
)

// Static enumeration (§III-H taken to its limit): the runtime
// enumeration exists to compress a sparse key domain onto [0, N). When
// the interval analysis proves a site's keys already live in a small
// dense range, the compression is the identity — so the site can take
// the dense implementation directly, with no enumeration global, no
// @enc/@dec/@add, and no table memory. The proof obligations are:
//
//   - every key ever inserted lies in [0, analysis.StaticDenseLimit):
//     the dense layout is genuinely dense, and inserted keys survive
//     the implementations' uint32 indexing unchanged;
//   - every key ever *looked up* (has/read/write/remove) fits in
//     uint32: a 64-bit lookup key would otherwise truncate onto a
//     present small key and turn a miss into a false hit;
//   - the summary is exact: every flow into the collection was
//     tracked, so the ranges are sound over-approximations.
//
// Sites that fail any obligation fall through to the ordinary
// benefit-driven runtime enumeration untouched.

// lookupKeyBound is the largest key the dense implementations index
// exactly: BitSet/BitMap/SparseBitSet take uint32 keys, so any lookup
// key that provably fits is handled identically to the hash baseline.
const lookupKeyBound = 1<<32 - 1

// staticSite records one applied static enumeration, for the report,
// the remark, and the -check invariant.
type staticSite struct {
	s    *site
	keys analysis.Interval
	impl collections.Impl
}

// staticEnumerate runs the static-enum sub-pass over every function,
// applying the dense selection to each proved site, and returns the
// applied sites in deterministic program order.
func staticEnumerate(cx *adeCtx) []staticSite {
	if !cx.opts.StaticEnum {
		return nil
	}
	// No rewrite has run yet, so use-analysis's def-use chains still
	// describe every function.
	ivs := analysis.IntervalsWithUses(cx.prog, func(fn *ir.Func) *ir.UseInfo {
		if fi := cx.fis[fn]; fi != nil {
			return fi.ui
		}
		return nil
	})
	var out []staticSite
	for _, name := range cx.prog.Order {
		fn := cx.prog.Funcs[name]
		fi := cx.fis[fn]
		if fi == nil {
			continue
		}
		afi := ivs.Func(fn)
		for _, s := range fi.sites {
			keys, ok := staticDenseProof(s, afi)
			if !ok {
				continue
			}
			// One static site is one rewrite unit, metered before the
			// classes so -fuel prefixes stay deterministic.
			if !cx.fuel.take() {
				continue
			}
			out = append(out, applyStaticDense(cx, s, keys))
		}
	}
	return out
}

// staticDenseProof checks the proof obligations for one site and
// returns the proved key range.
func staticDenseProof(s *site, afi *analysis.FuncIntervals) (analysis.Interval, bool) {
	no := analysis.Interval{}
	// Shape: a local, depth-0, non-escaping associative allocation with
	// exactly one allocation instruction (merged multi-alloc roots are
	// beyond what the per-allocation summaries distinguish).
	if s.depth != 0 || s.param != nil || len(s.allocs) != 1 || s.key == nil || s.escaped != "" {
		return no, false
	}
	if !integerKey(s.collType.Key) {
		return no, false
	}
	// Pragmas win: an explicit enumerate, noenumerate or select
	// directive is the user steering this exact decision by hand.
	if d := s.dir; d != nil && (d.Enumerate || d.NoEnumerate || d.Select != collections.ImplNone) {
		return no, false
	}
	// A union partner would need the same representation on both
	// sides; stay out of Algorithm 3's mandatory-merge territory.
	if len(s.key.unions) > 0 {
		return no, false
	}
	sum := afi.Site(s.alloc())
	if sum == nil || !sum.Exact || sum.AddPoints == 0 {
		return no, false
	}
	keys, seen := sum.KeyRange()
	if !seen || !keys.Within(0, analysis.StaticDenseLimit-1) {
		return no, false
	}
	// Lookup keys must fit the implementations' uint32 domain.
	for _, pp := range s.key.toEnc {
		iv, ok := lookupKeyInterval(afi, pp)
		if !ok || !iv.Within(0, lookupKeyBound) {
			return no, false
		}
	}
	return keys, true
}

// lookupKeyInterval resolves the proved interval of the key value at
// one search position.
func lookupKeyInterval(afi *analysis.FuncIntervals, pp patchPoint) (analysis.Interval, bool) {
	v := pp.value()
	if v == nil {
		return analysis.Interval{}, false
	}
	if pp.loop != nil {
		// A for-each path index has no anchoring instruction for a
		// flow-sensitive query; give up on the site.
		return analysis.Interval{}, false
	}
	return afi.ValueAt(pp.instr, v), true
}

// integerKey reports whether the key domain is a fixed-width integer —
// the only domains whose runtime values coincide with their interval
// bit patterns (floats and strings hash; their bit patterns are not
// dense indices).
func integerKey(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	if !ok {
		return false
	}
	switch st.Kind {
	case ir.U8, ir.U16, ir.U32, ir.U64, ir.I8, ir.I16, ir.I32, ir.I64:
		return true
	}
	return false
}

// applyStaticDense selects the dense implementation on the site. The
// root type is deep-copied first, exactly like the transformer's
// rewriteTypes, so type values shared with clones or other functions
// are unaffected.
func applyStaticDense(cx *adeCtx, s *site, keys analysis.Interval) staticSite {
	ct := copyCollType(s.collType)
	ct.Sel = denseImpl(cx.opts, ct.Kind)
	for _, a := range s.allocs {
		a.Alloc = ct
	}
	for v := range s.redefs {
		v.Type = ct
	}
	s.collType = ct
	s.staticDense = true
	st := staticSite{s: s, keys: keys, impl: ct.Sel}
	if cx.remarksOn() {
		r := cx.siteRemark(remarks.CodeStaticEnum, "static-enum", s)
		r.Message = "keys provably dense: dense implementation selected statically, no enumeration table"
		r.Args = []remarks.Arg{
			{Key: "range", Val: keys.String()},
			{Key: "limit", Val: fmt.Sprint(analysis.StaticDenseLimit)},
			{Key: "impl", Val: ct.Sel.String()},
		}
		cx.emit(r)
	}
	return st
}

// denseImpl picks the implementation for a statically-dense site: the
// same per-kind options the runtime enumeration's selection uses, so
// every matrix configuration keeps its flavor (§III-H).
func denseImpl(opts Options, kind ir.CollKind) collections.Impl {
	if kind == ir.KMap {
		if opts.MapImpl != collections.ImplNone {
			return opts.MapImpl
		}
		return collections.ImplBitMap
	}
	if opts.SetImpl != collections.ImplNone {
		return opts.SetImpl
	}
	return collections.ImplBitSet
}
