package core

import (
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/remarks"
	"memoir/internal/telemetry"
)

// siteProfileOf builds a one-program site profile whose sites saw the
// given insert counts. Map iteration order feeds the build, so equal
// inputs reach FromTelemetry in varying orders.
func siteProfileOf(inserts map[telemetry.SiteKey]uint64) *adeprofile.Profile {
	t := &telemetry.Telemetry{}
	for k, n := range inserts {
		ss := &telemetry.SiteStats{Key: k}
		ss.Ops[telemetry.OpInsert] = n
		t.Sites = append(t.Sites, ss)
	}
	return adeprofile.FromTelemetry("h", "", t)
}

// Every decision-relevant Options variation must produce a distinct
// fingerprint — a collision would alias two differently compiled
// artifacts under one cache key.
func TestFingerprintNoCollisions(t *testing.T) {
	base := DefaultOptions()
	variants := map[string]Options{
		"default": base,
	}
	v := base
	v.RTE = false
	variants["no-rte"] = v
	v = base
	v.Propagation = false
	variants["no-prop"] = v
	v = base
	v.Sharing = false
	variants["no-share"] = v
	v = base
	v.SetImpl = collections.ImplSparseBitSet
	variants["sparse-set"] = v
	v = base
	v.MapImpl = collections.ImplSwissMap
	variants["swiss-map"] = v
	v = base
	v.ForceAll = true
	variants["force-all"] = v
	v = base
	v.Check = true
	variants["check"] = v
	v = base
	v.Sandbox = true
	variants["sandbox"] = v
	v = base
	v.Fuel = 3
	variants["fuel-3"] = v
	v = base
	v.Fuel = -1
	variants["fuel-none"] = v
	v = base
	v.SiteProfile = siteProfileOf(map[telemetry.SiteKey]uint64{{Fn: "main", Alloc: 2}: 10})
	variants["profiled"] = v
	v = base
	v.SiteProfile = siteProfileOf(map[telemetry.SiteKey]uint64{{Fn: "main", Alloc: 2}: 11})
	variants["profiled-other"] = v

	seen := map[string]string{}
	for name, opt := range variants {
		fp := opt.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %q and %q both map to %q", prev, name, fp)
		}
		seen[fp] = name
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	// A multi-site profile rebuilt from a map each time exercises the
	// canonical ordering: build order must not leak into the fingerprint.
	inserts := map[telemetry.SiteKey]uint64{
		{Fn: "main", Alloc: 5}: 7,
		{Fn: "aux", Alloc: 1}:  3,
		{Fn: "main", Alloc: 1}: 9,
	}
	o := DefaultOptions()
	o.SiteProfile = siteProfileOf(inserts)
	fp := o.Fingerprint()
	for i := 0; i < 50; i++ {
		o.SiteProfile = siteProfileOf(inserts)
		if got := o.Fingerprint(); got != fp {
			t.Fatalf("fingerprint not deterministic: %q vs %q", got, fp)
		}
	}
}

// Observation-only and single-run fields must NOT change the
// fingerprint: remark emission never changes decisions (pinned by the
// PR-4 tests), and fault injectors are per-request state the server
// never caches across.
func TestFingerprintIgnoresObservationFields(t *testing.T) {
	a := DefaultOptions()
	b := DefaultOptions()
	b.Remarks = remarks.NewEmitter()
	pt, err := faults.ByName("alloc-fail:1")
	if err != nil {
		t.Fatal(err)
	}
	b.Faults = faults.NewInjector(pt)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("observation fields leaked into fingerprint:\n a=%q\n b=%q",
			a.Fingerprint(), b.Fingerprint())
	}
}
