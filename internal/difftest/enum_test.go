package difftest

import (
	"bytes"
	"strings"
	"testing"

	"memoir/internal/core"
)

// TestEnumDeterministic is the replay contract: the same bound yields
// the identical skeleton ID sequence every time, with the count the
// closed form predicts and no duplicate IDs.
func TestEnumDeterministic(t *testing.T) {
	for bound := 1; bound <= 3; bound++ {
		a, b := EnumeratePrograms(bound), EnumeratePrograms(bound)
		if len(a) != SkeletonCount(bound) {
			t.Fatalf("bound %d: %d skeletons, closed form says %d", bound, len(a), SkeletonCount(bound))
		}
		seen := map[string]bool{}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("bound %d: run 1 and run 2 disagree at %d: %s vs %s", bound, i, a[i].ID, b[i].ID)
			}
			if seen[a[i].ID] {
				t.Fatalf("bound %d: duplicate skeleton %s", bound, a[i].ID)
			}
			seen[a[i].ID] = true
		}
	}
	// Growing the bound only appends: the walk is by statement count
	// first, so bound N's sequence is a prefix of bound N+1's.
	small, big := EnumeratePrograms(1), EnumeratePrograms(2)
	for i := range small {
		if small[i].ID != big[i].ID {
			t.Fatalf("bound 1 is not a prefix of bound 2 at %d", i)
		}
	}
}

// TestEnumShardsPartition checks -shard i/n over the skeleton list as
// Run reports it: pairwise disjoint, union exhaustive, each shard in
// enumeration order.
func TestEnumShardsPartition(t *testing.T) {
	all := EnumeratePrograms(1)
	order := map[string]int{}
	for i, sk := range all {
		order[sk.ID] = i
	}
	for _, n := range []int{1, 2, 4, 7} {
		seen := map[string]int{}
		for i := 0; i < n; i++ {
			rpt, err := Run(Options{Bound: 1, Shard: Shard{i, n}, Configs: []string{"baseline-hash"}})
			if err != nil {
				t.Fatal(err)
			}
			prev := -1
			for _, id := range rpt.Sources {
				if order[id] <= prev {
					t.Fatalf("shard %d/%d out of order", i, n)
				}
				prev = order[id]
				seen[id]++
			}
		}
		if len(seen) != len(all) {
			t.Fatalf("%d-way shards cover %d of %d skeletons", n, len(seen), len(all))
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("%d-way shards ran %s %d times", n, id, c)
			}
		}
	}
}

// TestSkeletonIDRoundTrip: every enumerated ID parses back to itself,
// and malformed IDs are rejected with the tokens named.
func TestSkeletonIDRoundTrip(t *testing.T) {
	for _, sk := range EnumeratePrograms(2) {
		got, err := ParseSkeletonID(sk.ID)
		if err != nil {
			t.Fatalf("ParseSkeletonID(%q): %v", sk.ID, err)
		}
		if got.ID != sk.ID || got.Shape != sk.Shape || len(got.Stmts) != len(sk.Stmts) {
			t.Fatalf("round trip lost structure: %q -> %+v", sk.ID, got)
		}
	}
	for _, bad := range []string{"", "sk", "skS:", "skX:pm0", "skS:nope", "skS:pm0..tms", "pm0.tms"} {
		if _, err := ParseSkeletonID(bad); err == nil {
			t.Errorf("ParseSkeletonID(%q) accepted", bad)
		}
	}
}

// TestEnumSweepClean runs the full bound-1 sweep across the whole
// matrix — every statement shape alone, both control shapes, all
// configs and both engines must agree with the reference.
func TestEnumSweepClean(t *testing.T) {
	rpt, err := Run(Options{Bound: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("bound-1 sweep not clean:\n%s", buf.String())
	}
	if len(rpt.Sources) != SkeletonCount(1) || rpt.Cells != SkeletonCount(1)*len(rpt.Configs) || len(rpt.Entries) != 0 {
		t.Fatalf("cell accounting wrong: %d sources, %d cells, %d entries", len(rpt.Sources), rpt.Cells, len(rpt.Entries))
	}
}

// TestEnumFaultCaughtAndReduced: a seeded enumeration-corruption fault
// injected into every cell degrades exactly the cells whose
// enumerations reach it — contained, so the run still passes — and a
// degraded multi-statement skeleton reduces to its minimal failing
// prefix and is fuel-bisected as well.
func TestEnumFaultCaughtAndReduced(t *testing.T) {
	rpt, err := Run(Options{
		Bound:   2,
		Configs: []string{"ade"},
		Faults:  []string{"enum-corrupt:3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || rpt.Degraded != 36 || len(rpt.Divergences) != 36 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("want 36 contained degraded cells:\n%s", buf.String())
	}
	for _, d := range rpt.Divergences {
		if d.Kind != FaultDegraded || d.Reduced == "" || d.Fault != "enum-corrupt:3" {
			t.Fatalf("divergence lacks skeleton attribution: %+v", d)
		}
	}

	// Replay-by-ID with the same fault: the two trailing statements are
	// innocent, so reduction must land exactly on the populate+share
	// prefix that performs the corrupted enumeration add.
	rpt, err = Run(Options{
		IDs:     []string{"skS:pm0.tms.lm0.fs0"},
		Configs: []string{"ade"},
		Faults:  []string{"enum-corrupt:3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || len(rpt.Divergences) != 1 {
		t.Fatalf("want exactly one contained divergence, got %+v", rpt.Divergences)
	}
	d := rpt.Divergences[0]
	if d.Source != "skS:pm0.tms.lm0.fs0" || d.Reduced != "skS:pm0.tms" || d.FirstBadRewrite == nil || *d.FirstBadRewrite < 1 {
		t.Fatalf("reduction or bisection wrong: %+v", d)
	}
}

// TestSelections: a selection that matches nothing is an error for
// every source kind — a typo'd CI filter must not pass silently — and
// so are two source selectors at once.
func TestSelections(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"benchmarks", Options{Benchmarks: []string{"BFS"}, Shard: Shard{1, 2}}, "empty selection"},
		{"skeletons", Options{Bound: 1, Shard: Shard{31, 40}}, "empty selection"},
		{"skeleton IDs", Options{IDs: []string{"skS:pm0"}, Shard: Shard{1, 2}}, "empty selection"},
		{"seeds", Options{Seed: 1, Count: 1, Shard: Shard{1, 2}}, "empty selection"},
		{"negative bound", Options{Bound: -1}, "bound must be >= 1"},
		{"seed and bound", Options{Seed: 5, Bound: 1}, "conflicting source selectors -enum and -seed"},
		{"bench and ids", Options{Benchmarks: []string{"BFS"}, IDs: []string{"skS:pm0"}}, "conflicting source selectors -bench and -enum-id"},
	} {
		if _, err := Run(tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestFuelReachesSkeletonCells: Fuel applies to skeleton cells like
// any other — at -1 the ADE pass performs no rewrites, so the kept
// (deliberately broken) cell forms no enumeration class and runs no
// translation.
func TestFuelReachesSkeletonCells(t *testing.T) {
	opts := core.DefaultOptions()
	matrix := []Config{{Name: "ade-broken", ADE: &opts, Mutate: breakEmits}}
	for _, fuel := range []int{0, -1} {
		rpt, err := Run(Options{IDs: []string{"skS:pm0.tms"}, Matrix: matrix, Fuel: fuel})
		if err != nil {
			t.Fatal(err)
		}
		if len(rpt.Entries) != 1 {
			t.Fatalf("fuel %d: want the broken cell kept, got %+v", fuel, rpt.Entries)
		}
		e := rpt.Entries[0]
		active := e.EnumClasses > 0 || e.Enc+e.Dec+e.Add > 0
		if active != (fuel == 0) {
			t.Fatalf("fuel %d: enumeration activity %v: %+v", fuel, active, e)
		}
	}
}

// TestEnumReportRoundTrip covers a skeleton replay through
// Encode/Decode.
func TestEnumReportRoundTrip(t *testing.T) {
	rpt, err := Run(Options{
		IDs:     []string{"skS:pm0.cal", "skL:nst"},
		Configs: []string{"baseline-hash", "ade", "ade@vm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || rpt.Cells != 6 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("replay not clean:\n%s", buf.String())
	}
	var buf bytes.Buffer
	if err := rpt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sources) != 2 || got.Sources[1] != "skL:nst" || got.Cells != 6 || got.Scale != "" {
		t.Fatalf("skeleton replay round trip: %+v", got)
	}
}
