package difftest

import (
	"bytes"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/faults"
)

// TestFaultSweepContainment runs the full fault registry against one
// benchmark on baseline, ADE and ADE@vm columns and pins the
// containment contract: every injected fault is rolled back, crashes
// as a structured error, or degrades the output — never escapes — and
// both engines classify every fault identically.
func TestFaultSweepContainment(t *testing.T) {
	rpt, err := Run(Options{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Configs:    []string{"baseline-hash", "ade", "ade@vm"},
		Faults:     []string{"all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || rpt.Unexpected != 0 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("fault escaped containment:\n%s", buf.String())
	}
	// Every faulted cell keeps its entry.
	if want := len(faults.Registry()) * 3; len(rpt.Entries) != want || rpt.Cells != want || len(rpt.Faults) != len(faults.Registry()) {
		t.Fatalf("sweep kept %d entries of %d cells, want %d", len(rpt.Entries), rpt.Cells, want)
	}

	cell := func(fault, cfg string) Entry {
		for _, c := range rpt.Entries {
			if c.Fault == fault && c.Config == cfg {
				return c
			}
		}
		t.Fatalf("no cell for %s under %s", fault, cfg)
		return Entry{}
	}
	// firstBad reads a cell's bisection index, -1 when none applies.
	firstBad := func(c Entry) int {
		if c.FirstBadRewrite == nil {
			return -1
		}
		return *c.FirstBadRewrite
	}

	// Compile-time pass panics: the sandbox rolls every one back on
	// ADE columns; baseline columns run no compiler pipeline.
	for _, pass := range faults.Passes {
		name := "pass-panic:" + pass
		for _, cfg := range []string{"ade", "ade@vm"} {
			if c := cell(name, cfg); c.Outcome != FaultRolledBack {
				t.Errorf("%s under %s: %s (%s), want rolled-back", name, cfg, c.Outcome, c.Detail)
			}
		}
		if c := cell(name, "baseline-hash"); c.Outcome != FaultNotTriggered {
			t.Errorf("%s under baseline-hash: %s, want not-triggered", name, c.Outcome)
		}
	}

	// A failing allocation must crash with a structured error on every
	// column — containment, not a process panic.
	for _, cfg := range []string{"baseline-hash", "ade", "ade@vm"} {
		if c := cell("alloc-fail:1", cfg); c.Outcome != FaultCrash {
			t.Errorf("alloc-fail:1 under %s: %s (%s), want crash", cfg, c.Outcome, c.Detail)
		}
	}
	// alloc-fail:7 fires inside Run: the crash detail is the
	// structured ErrRuntimePanic message naming the point, and fuel
	// bisection finds the crash present even untransformed.
	for _, cfg := range []string{"ade", "ade@vm"} {
		c := cell("alloc-fail:7", cfg)
		if c.Outcome != FaultCrash || !strings.Contains(c.Detail, "runtime panic: injected fault alloc-fail:7") {
			t.Errorf("alloc-fail:7 under %s: %s (%s)", cfg, c.Outcome, c.Detail)
		}
		if firstBad(c) != 0 {
			t.Errorf("alloc-fail:7 under %s: first bad rewrite %d, want 0 (crashes even untransformed)", cfg, firstBad(c))
		}
	}

	// Enumeration corruption cannot fire without enumerations.
	for _, n := range []string{"enum-corrupt:1", "enum-corrupt:100"} {
		if c := cell(n, "baseline-hash"); c.Outcome != FaultNotTriggered {
			t.Errorf("%s under baseline-hash: %s, want not-triggered", n, c.Outcome)
		}
	}
	// On BFS, corrupting the 100th enumeration add reaches the output:
	// the miscompile shape. Bisection must attribute it to a real
	// rewrite (not the untransformed program, which has no enums).
	for _, cfg := range []string{"ade", "ade@vm"} {
		c := cell("enum-corrupt:100", cfg)
		if c.Outcome != FaultDegraded {
			t.Errorf("enum-corrupt:100 under %s: %s (%s), want degraded", cfg, c.Outcome, c.Detail)
		}
		if firstBad(c) < 1 {
			t.Errorf("enum-corrupt:100 under %s: first bad rewrite %d, want >= 1", cfg, firstBad(c))
		}
	}

	// Engine parity: the VM column classifies every fault exactly like
	// its interpreter twin, bisection index included.
	for _, pt := range faults.Registry() {
		i, v := cell(pt.Name, "ade"), cell(pt.Name, "ade@vm")
		if i.Outcome != v.Outcome || firstBad(i) != firstBad(v) {
			t.Errorf("%s: engines disagree: interp %s/%d vs vm %s/%d",
				pt.Name, i.Outcome, firstBad(i), v.Outcome, firstBad(v))
		}
	}

	// Contained-but-visible faults land as informative divergences that
	// never fail the report.
	for _, d := range rpt.Divergences {
		if d.Kind != FaultCrash && d.Kind != FaultDegraded {
			t.Errorf("fault sweep produced a non-fault divergence: %+v", d)
		}
		if d.Fault == "" {
			t.Errorf("fault divergence does not name its point: %+v", d)
		}
		if d.Kind == FaultDegraded && (d.FirstBadRewrite == nil || *d.FirstBadRewrite < 1) {
			t.Errorf("degraded divergence not bisected: %+v", d)
		}
	}
	if rpt.Crashed == 0 || rpt.Degraded == 0 || rpt.RolledBack == 0 {
		t.Errorf("sweep did not exercise every containment path: %+v", rpt)
	}
}

// TestFaultSweepUnknownPoint: a bad -fault name is a harness error,
// not a swept cell.
func TestFaultSweepUnknownPoint(t *testing.T) {
	_, err := Run(Options{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Faults:     []string{"no-such-fault"},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown injection point") {
		t.Fatalf("err = %v, want unknown-point error", err)
	}
}

// TestFaultReportRoundTrip: faulted cells survive the JSON round trip,
// contained faults do not fail OK(), and an unexpected cell does.
func TestFaultReportRoundTrip(t *testing.T) {
	rpt := &Report{Schema: Schema, Configs: []string{"ade"}, Sources: []string{"BFS", "TC"}, Faults: []string{"enum-corrupt:1"}}
	k := 3
	rpt.add(Entry{Source: "BFS", Config: "ade", Fault: "enum-corrupt:1", Outcome: FaultDegraded, FirstBadRewrite: &k})
	rpt.add(Entry{Source: "TC", Config: "ade", Fault: "enum-corrupt:1", Outcome: FaultRolledBack})
	rpt.Divergences = []Divergence{{Source: "BFS", Config: "ade", Kind: FaultDegraded, Fault: "enum-corrupt:1", FirstBadRewrite: &k}}
	if !rpt.OK() || rpt.Cells != 2 || rpt.Degraded != 1 || rpt.RolledBack != 1 {
		t.Fatalf("summary wrong: %+v", rpt)
	}

	var buf bytes.Buffer
	if err := rpt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Degraded != 1 || len(got.Faults) != 1 {
		t.Fatalf("faulted cells lost in round trip: %+v", got)
	}
	if c := got.Entries[0]; c.Outcome != FaultDegraded || c.FirstBadRewrite == nil || *c.FirstBadRewrite != 3 {
		t.Fatalf("cell round trip: %+v", c)
	}
	if d := got.Divergences[0]; d.FirstBadRewrite == nil || *d.FirstBadRewrite != 3 {
		t.Fatalf("divergence round trip: %+v", d)
	}

	got.add(Entry{Source: "TC", Config: "ade", Fault: "enum-corrupt:1", Outcome: FaultUnexpected})
	if got.OK() || got.Unexpected != 1 {
		t.Fatal("unexpected cell must fail the report")
	}
}
