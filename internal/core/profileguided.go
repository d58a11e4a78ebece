package core

import (
	"fmt"

	"memoir/internal/collections"
	"memoir/internal/ir"
	"memoir/internal/remarks"
	"memoir/internal/telemetry"
)

// This file implements profile-guided ADE over a durable adeprofile/v1
// document (Options.SiteProfile): resolution and staleness detection,
// the per-instruction benefit weights derived from observed per-site
// operation histograms, and the occupancy-driven implementation
// selection. The profile is advisory by construction: a stale or
// unmappable profile degrades to the static heuristics with a
// profile-stale remark, and it never changes program semantics — only
// which sites enumerate and which implementation they get.

// resolveSiteProfile matches Options.SiteProfile against the
// still-untransformed program. On success cx.siteProf holds the
// program's entry and a profile-weighted remark records the match; on
// any mismatch (unknown hash, site key naming a missing function or an
// out-of-range allocation ordinal) the pass emits profile-stale, notes
// the outcome in the report, and leaves every decision to the static
// heuristics.
func (cx *adeCtx) resolveSiteProfile(report *Report) {
	if cx.opts.SiteProfile == nil {
		return
	}
	hash := ir.ProgramHash(cx.prog)
	stale := func(why string) {
		report.Profile = "stale: " + why
		cx.emit(remarks.Remark{
			Code: remarks.CodeProfileStale, Pass: "profile",
			Message: why + "; falling back to static heuristics",
			Args:    []remarks.Arg{{Key: "hash", Val: hash[:12]}},
		})
	}
	pp := cx.opts.SiteProfile.For(hash)
	if pp == nil {
		stale("no profile entry matches this program's hash")
		return
	}
	// Every non-pseudo site key must map onto the program: the function
	// must exist and the allocation ordinal must address one of its
	// `new` instructions. A single unmappable key means the profile was
	// collected against a different revision, and partial application
	// could silently misattribute counts — reject the whole entry.
	matched := 0
	for _, s := range pp.Sites {
		if s.Key.Alloc < 0 {
			continue // input pseudo-site (collections built by the harness)
		}
		fn := cx.prog.Func(s.Key.Fn)
		if fn == nil {
			stale(fmt.Sprintf("profiled site %s names a function this program does not have", s.Key))
			return
		}
		ords, ok := cx.allocOrds[fn]
		if !ok {
			ords = telemetry.AllocOrdinals(fn)
			cx.allocOrds[fn] = ords
		}
		if s.Key.Alloc >= len(ords) {
			stale(fmt.Sprintf("profiled site %s is out of range (%d allocations)", s.Key, len(ords)))
			return
		}
		matched++
	}
	cx.siteProf = pp
	report.Profile = fmt.Sprintf("weighted: %d sites over %d runs", matched, pp.Runs)
	cx.emit(remarks.Remark{
		Code: remarks.CodeProfileWeighted, Pass: "profile",
		Message: "profile matched; benefit weights and selection are profile-guided",
		Args: []remarks.Arg{
			{Key: "runs", Val: fmt.Sprint(pp.Runs)},
			{Key: "sites", Val: fmt.Sprint(matched)},
		},
	})
}

// profiledKey returns the telemetry key a profile records site s
// under, nil for parameter sites. Clones resolve to their original's
// name: the profile was collected before cloning, and ADE clones
// preserve allocation ordinals.
func (cx *adeCtx) profiledKey(s *site) *telemetry.SiteKey {
	k := cx.siteKey(s)
	if k == nil {
		return nil
	}
	if orig, ok := cx.fnAlias[k.Fn]; ok {
		k.Fn = orig
	}
	return k
}

// instrOpIndex maps a collection-operation instruction to the
// telemetry histogram index its executions are counted under, or -1.
func instrOpIndex(op ir.Opcode) int {
	switch op {
	case ir.OpRead:
		return telemetry.OpRead
	case ir.OpWrite:
		return telemetry.OpWrite
	case ir.OpInsert:
		return telemetry.OpInsert
	case ir.OpRemove:
		return telemetry.OpRemove
	case ir.OpHas:
		return telemetry.OpHas
	case ir.OpSize:
		return telemetry.OpSize
	case ir.OpClear:
		return telemetry.OpClear
	case ir.OpUnion:
		// Unions are counted word-wise; the word count is the work the
		// elision saves, which is exactly what a benefit weight is.
		return telemetry.OpUnionWord
	}
	return -1
}

// siteWeights builds (and caches) fn's instruction→weight map from the
// matched profile: every collection operation anchored to a profiled
// allocation site weighs its site's observed count for that operation
// kind. A site absent from the profile never allocated in any recorded
// run, so its operations weigh zero; instructions the map does not
// cover (comparisons, phis, translations inserted later) default to
// weight 1 in weightFn's closure.
func (cx *adeCtx) siteWeights(fn *ir.Func) map[*ir.Instr]uint64 {
	if m, ok := cx.siteWts[fn]; ok {
		return m
	}
	m := map[*ir.Instr]uint64{}
	cx.siteWts[fn] = m
	fi := cx.fis[fn]
	if fi == nil {
		return m
	}
	// Per-depth lookup: an instruction whose collection operand has a
	// d-step path executes on the root's depth-d site.
	byDepth := map[int][]*site{}
	for _, s := range fi.sites {
		byDepth[s.depth] = append(byDepth[s.depth], s)
	}
	weightOf := func(o ir.Operand, k int) (uint64, bool) {
		if o.Base == nil {
			return 0, false
		}
		for _, s := range byDepth[len(o.Path)] {
			if !s.redefs[o.Base] {
				continue
			}
			pk := cx.profiledKey(s)
			if pk == nil {
				return 0, false // parameter site: stay static
			}
			if sp := cx.siteProf.Site(*pk); sp != nil {
				return sp.Ops[k], true
			}
			return 0, true // profiled program never allocated here: cold
		}
		return 0, false
	}
	ir.WalkInstrs(fn, func(in *ir.Instr) {
		k := instrOpIndex(in.Op)
		if k < 0 || len(in.Args) == 0 {
			return
		}
		if w, ok := weightOf(in.Args[0], k); ok {
			m[in] = w
		}
	})
	return m
}

// Selection thresholds: a profile steers an enumerated set to the
// sparse dense-domain implementation when the enumeration universe is
// at least sparseMinUniverse identifiers and the site's own peak
// occupancy stays under 1/sparseOccupancyDiv of it (§III-H's
// occupancy argument, measured instead of guessed).
const (
	sparseMinUniverse  = 64
	sparseOccupancyDiv = 8
)

// profileImpl consults the matched profile for site s's dense
// implementation. It returns ok=false whenever the profile has
// nothing to say (no profile, a map site — there is no sparse dense
// map implementation — an unprofiled site, or occupancy high enough
// that the default dense bitset is right).
func (tr *transformer) profileImpl(s *site, kc *classInfo, ct *ir.CollType) (collections.Impl, bool) {
	cx := tr.cx
	if cx.siteProf == nil || kc == nil || ct.Kind != ir.KSet {
		return collections.ImplNone, false
	}
	pk := cx.profiledKey(s)
	if pk == nil {
		return collections.ImplNone, false
	}
	sp := cx.siteProf.Site(*pk)
	if sp == nil {
		return collections.ImplNone, false
	}
	// The enumeration's cardinality is what the dense domain spans;
	// bound it by the largest key-facet peak observed across the
	// class (an associative site's peak is its distinct-key count —
	// element facets of propagator sequences hold repeats and would
	// inflate the estimate).
	universe := 0
	for _, f := range kc.facets {
		if tr.classOf[f] != kc || f.kind != facetKeys {
			continue
		}
		if fk := cx.profiledKey(f.st); fk != nil {
			if fsp := cx.siteProf.Site(*fk); fsp != nil && fsp.PeakLen > universe {
				universe = fsp.PeakLen
			}
		}
	}
	if universe >= sparseMinUniverse && sp.PeakLen*sparseOccupancyDiv <= universe {
		return collections.ImplSparseBitSet, true
	}
	return collections.ImplNone, false
}
