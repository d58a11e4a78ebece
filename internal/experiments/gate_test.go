package experiments

import (
	"strings"
	"testing"

	"memoir/internal/bench"
)

func countsFixture() *CountsFile {
	return &CountsFile{
		Schema: CountsSchema,
		Scale:  "test",
		Counts: map[string]map[string]OpCounts{
			"BFS": {
				"memoir": {Steps: 1000, CollOps: 400, Sparse: 300, Dense: 100},
				"ade":    {Steps: 900, CollOps: 400, Sparse: 50, Dense: 350, Trans: 120},
			},
		},
	}
}

func TestCompareCountsPasses(t *testing.T) {
	base := countsFixture()
	cur := countsFixture()
	// Growth inside the tolerance band is fine.
	c := cur.Counts["BFS"]["ade"]
	c.Steps = 940 // +4.4%
	cur.Counts["BFS"]["ade"] = c
	if fails := CompareCounts(base, cur, 0.05); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	// Improvements never fail the gate.
	c.Steps = 500
	cur.Counts["BFS"]["ade"] = c
	if fails := CompareCounts(base, cur, 0.05); len(fails) != 0 {
		t.Fatalf("improvement flagged: %v", fails)
	}
}

func TestCompareCountsCatchesRegressions(t *testing.T) {
	base := countsFixture()
	cur := countsFixture()
	c := cur.Counts["BFS"]["ade"]
	c.Sparse = 60 // +20% searching accesses
	cur.Counts["BFS"]["ade"] = c
	fails := CompareCounts(base, cur, 0.05)
	if len(fails) != 1 || !strings.Contains(fails[0], "sparse regressed") {
		t.Fatalf("want one sparse regression, got %v", fails)
	}
}

func TestCompareCountsMissingCells(t *testing.T) {
	base := countsFixture()
	cur := countsFixture()
	cur.Counts["PTA"] = map[string]OpCounts{"memoir": {Steps: 1}}
	fails := CompareCounts(base, cur, 0.05)
	if len(fails) != 1 || !strings.Contains(fails[0], "not in baseline") {
		t.Fatalf("new benchmark must demand a baseline refresh, got %v", fails)
	}
	delete(cur.Counts, "PTA")
	delete(cur.Counts, "BFS")
	fails = CompareCounts(base, cur, 0.05)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing from this run") {
		t.Fatalf("vanished benchmark must fail the gate, got %v", fails)
	}
}

// TestCollectCountsDeterministic is the property the CI gate rests on:
// two collections of the op counts are identical and match the
// checked-in baseline, so it gates at zero tolerance. (The interpreter's counts are
// pinned to the VM's by difftest's @vm twins.)
func TestCollectCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite double run")
	}
	a, err := CollectCounts(bench.ScaleTest, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectCounts(bench.ScaleTest, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if fails := CompareCounts(a, b, 0); len(fails) != 0 {
		t.Fatalf("op counts nondeterministic: %v", fails)
	}
	if fails := CompareCounts(b, a, 0); len(fails) != 0 {
		t.Fatalf("op counts nondeterministic: %v", fails)
	}
	base, err := ReadCounts("../../testdata/baseline_counts.json")
	if err != nil {
		t.Fatal(err)
	}
	if fails := CompareCounts(base, a, 0); len(fails) != 0 {
		t.Fatalf("counts drift from the checked-in baseline: %v", fails)
	}
}
