// Package core implements Automatic Data Enumeration (ADE), the
// paper's primary contribution: a transformation over the MEMOIR IR
// that decomposes sparse associative collections K→V into an
// enumeration K→E plus a dense collection E→V, where E = [0,|K|).
//
// The pipeline follows §III of the paper:
//
//  1. Site discovery — find enumerable associative collection sites,
//     including nested levels (§III-G), with a conservative escape
//     analysis (§III-F).
//  2. Use analysis — compute ToEnc/ToDec/ToAdd per site (Algorithm 1)
//     and the propagator variants (Algorithm 4).
//  3. Candidate formation — group sites that share an enumeration
//     when the benefit heuristic improves (Algorithm 3), honoring
//     `#pragma ade` directives (§III-I).
//  4. Interprocedural unification — union-find over sites and
//     collection parameters, one enumeration global per class,
//     cloning mixed-caller and exported callees (Algorithm 5).
//  5. Transformation — rewrite types to idx, select dense
//     implementations (§III-H), and patch uses with @enc/@dec/@add,
//     eliding the redundant translations RTE identifies (Algorithm 2).
package core

import (
	"fmt"
	"strings"

	"memoir/internal/adeprofile"
	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/ir"
	"memoir/internal/remarks"
)

// Options configures the ADE pass. The zero value disables everything;
// use DefaultOptions for the paper's full configuration.
type Options struct {
	// RTE enables redundant translation elimination (§III-C). The
	// ade-noredundant ablation disables it.
	RTE bool
	// Propagation enables storing identifiers in collection elements
	// (§III-E). The ade-nopropagation ablation disables it.
	Propagation bool
	// Sharing enables enumeration sharing between collections
	// (§III-D). Disabling sharing also disables propagation, matching
	// the paper's ade-nosharing configuration.
	Sharing bool

	// SetImpl and MapImpl are the selections applied to enumerated
	// collections; the defaults are BitSet and BitMap. The ade-sparse
	// configuration selects SparseBitSet.
	SetImpl collections.Impl
	MapImpl collections.Impl

	// ForceAll enumerates every eligible site regardless of the
	// benefit heuristic (useful in tests).
	ForceAll bool

	// StaticEnum enables static enumeration: when the interval
	// analysis proves every key a site ever holds lies in the small
	// dense range [0, analysis.StaticDenseLimit) — and every lookup
	// key fits the dense implementations' 32-bit domain — the site
	// gets the dense implementation directly, with no enumeration
	// table and no enc/dec operations at all. The keys already are
	// their own identifiers.
	StaticEnum bool

	// Check re-runs the IR verifier and the pipeline's own invariant
	// checks between every ADE sub-pass (adec -check). Checks are pure
	// reads: enabling them never changes the decisions taken.
	Check bool

	// Remarks, when non-nil, collects structured optimization remarks
	// and per-sub-pass timings (adec -remarks/-trace). Emission is
	// pure observation: enabling it never changes the decisions taken.
	Remarks *remarks.Emitter

	// SiteProfile, when non-nil, is an adeprofile/v1 document (adec
	// -profile) whose per-site operation histograms weight the benefit
	// heuristic instead of static use counts — the extension the paper
	// sketches in §III-C — so cold code (never-executed uses, like
	// FIM's disabled verbose output) contributes no benefit, and whose
	// occupancy/key-bound observations steer implementation selection. The profile entry is matched to the program by its
	// pre-ADE ir.ProgramHash; a missing or unmappable entry emits a
	// profile-stale remark and falls back to the static heuristics —
	// it never fails the compile and never silently misapplies.
	SiteProfile *adeprofile.Profile

	// Sandbox runs every sub-pass against a pristine-IR snapshot with
	// panic recovery: a sub-pass that panics or fails a -check
	// invariant is rolled back wholesale — the program reverts to its
	// untransformed state, a `degrade` remark is emitted, and Apply
	// returns successfully with Report.Degraded filled. Off, the same
	// failures surface as errors (a panic becomes an
	// "ade: panic in <pass>" error rather than crashing the process).
	Sandbox bool

	// Fuel bounds the number of rewrites the pass may perform, for
	// bisecting miscompiles: 0 is unlimited (the zero-value default),
	// N > 0 stops after N rewrite units (static-enum sites in program
	// order, then enumeration classes in deterministic id order, then
	// RTE elisions in transform order), and any negative value permits
	// none. Report.Rewrites records how many units a run actually
	// performed.
	Fuel int

	// Faults, when non-nil, drives deterministic compile-time fault
	// injection (force a sub-pass panic) for testing the sandbox. Each
	// injector is single-run state: never share one across Apply calls.
	Faults *faults.Injector
}

// FuelFromFlag maps the CLI -fuel convention (-1 unlimited — the flag
// default — 0 permits no rewrites, N > 0 permits N) onto Options.Fuel,
// whose zero value must stay "unlimited" for compatibility (0
// unlimited, negative none).
func FuelFromFlag(n int) int {
	switch {
	case n < 0:
		return 0
	case n == 0:
		return -1
	default:
		return n
	}
}

// DefaultOptions returns the paper's full ADE configuration.
func DefaultOptions() Options {
	return Options{
		RTE:         true,
		Propagation: true,
		Sharing:     true,
		StaticEnum:  true,
		SetImpl:     collections.ImplBitSet,
		MapImpl:     collections.ImplBitMap,
	}
}

// Report summarizes what the pass did, for the compiler driver's
// diagnostics and for tests.
type Report struct {
	Classes []*ClassReport
	// Static lists sites the interval analysis proved dense: they got
	// the dense implementation with no enumeration table at all.
	Static []string
	// Skipped lists sites considered but not enumerated, with the
	// reason.
	Skipped []string
	// Cloned lists functions cloned for transformation (§III-F).
	Cloned []string
	// Degraded lists sandboxed sub-passes that failed and were rolled
	// back ("<pass>: <reason>"); non-empty means the program ran
	// unoptimized (Options.Sandbox).
	Degraded []string
	// Rewrites counts the rewrite units performed, in the same units
	// Options.Fuel is budgeted in; the unlimited-fuel count is the
	// bisection upper bound.
	Rewrites int
	// Profile records the Options.SiteProfile resolution outcome: ""
	// when no site profile was supplied, "weighted: ..." when it
	// matched and guided the run, "stale: <why>" when it was rejected
	// and the static heuristics decided everything.
	Profile string
}

// ClassReport describes one enumeration equivalence class.
type ClassReport struct {
	Global  string // enumeration global name
	Sites   []string
	Benefit int
	Trims   int
}

func (r *Report) String() string {
	var sb strings.Builder
	if r.Profile != "" {
		fmt.Fprintf(&sb, "profile: %s\n", r.Profile)
	}
	for _, s := range r.Static {
		fmt.Fprintf(&sb, "static: %s\n", s)
	}
	for _, c := range r.Classes {
		fmt.Fprintf(&sb, "enum %s (benefit %d):\n", c.Global, c.Benefit)
		for _, s := range c.Sites {
			fmt.Fprintf(&sb, "  %s\n", s)
		}
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&sb, "skipped: %s\n", s)
	}
	for _, c := range r.Cloned {
		fmt.Fprintf(&sb, "cloned: %s\n", c)
	}
	for _, d := range r.Degraded {
		fmt.Fprintf(&sb, "degraded: %s\n", d)
	}
	return sb.String()
}

// enumerableKey reports whether a key domain can be enumerated: any
// scalar domain except identifiers themselves.
func enumerableKey(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	if !ok {
		return false
	}
	switch st.Kind {
	case ir.Void, ir.Idx, ir.Bool:
		return false
	}
	return true
}
