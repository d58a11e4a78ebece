package core

import (
	"fmt"
	"strings"
)

// Fingerprint renders the decision-relevant part of an Options value
// as a short stable string. Two Options with the same fingerprint
// compile any given program to the same artifact, so the serving
// layer keys its compiled-bytecode cache by
// (ir.ProgramHash, Options.Fingerprint).
//
// Covered: every field that changes what the pass decides or emits —
// the ablation toggles, the implementation selections, ForceAll,
// Fuel, Check/Sandbox (a check or sandbox failure changes the output
// program), and the site profile's content hash when profile-guided.
//
// Excluded by design: Remarks (pure observation, pinned by PR-4
// tests), and Faults (single-run test-only state; the server bypasses
// the cache entirely for fault-injected requests).
func (o Options) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rte=%t,prop=%t,share=%t,set=%s,map=%s,force=%t,static=%t,check=%t,sandbox=%t,fuel=%d",
		o.RTE, o.Propagation, o.Sharing, o.SetImpl, o.MapImpl, o.ForceAll, o.StaticEnum, o.Check, o.Sandbox, o.Fuel)
	if o.SiteProfile != nil {
		// An adeprofile/v1 document can be large; cover it by the
		// content hash of its canonical serialization (two compiles
		// guided by different profiles must not share a cache entry).
		fmt.Fprintf(&sb, ",siteprofile=%s", o.SiteProfile.Fingerprint())
	}
	return sb.String()
}
