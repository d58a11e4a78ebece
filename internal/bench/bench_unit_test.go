package bench

import (
	"testing"

	"memoir/internal/interp"
	"memoir/internal/ir"
)

func TestRegistryComplete(t *testing.T) {
	// The paper evaluates 15 Lonestar analytics benchmarks + freqmine;
	// the suite adds the streaming-graph (SG) and multi-tenant-basket
	// (MTB) families on top.
	want := []string{"BC", "BFS", "BP", "CC", "CD", "FIM", "IS", "KC",
		"KT", "MCBM", "MST", "MTB", "PP", "PR", "PTA", "SG", "SSSP", "TC"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d benchmarks, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Abbr != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, s.Abbr, want[i])
		}
		if s.Name == "" {
			t.Fatalf("%s has no descriptive name", s.Abbr)
		}
	}
	if Get("PTA") == nil || Get("NOPE") != nil {
		t.Fatal("Get lookup wrong")
	}
}

// TestROITimingDecomposes pins the run timing the runtime records, on
// both engines: the run's start, its roi marker and its end are
// ordered, Wall measures both intervals up to the one end instant, and
// ExecuteOn's init and ROI times add up to the whole run.
func TestROITimingDecomposes(t *testing.T) {
	s := Get("BFS")
	for _, eng := range Engines() {
		m, err := NewMachine(s.Build(""), interp.DefaultOptions(), eng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run("main", s.Input(m, ScaleTest)...); err != nil {
			t.Fatal(err)
		}
		if m.ROISnapshot == nil {
			t.Fatalf("%v: roi marker did not run", eng)
		}
		if m.ROIStart.Before(m.RunStart) || m.RunEnd.Before(m.ROIStart) {
			t.Fatalf("%v: timestamps out of order: start %v, roi %v, end %v", eng, m.RunStart, m.ROIStart, m.RunEnd)
		}
		whole, roi := m.Wall()
		if whole != m.RunEnd.Sub(m.RunStart) || roi != m.RunEnd.Sub(m.ROIStart) {
			t.Fatalf("%v: Wall() = %v, %v; want end-start %v, end-roi %v",
				eng, whole, roi, m.RunEnd.Sub(m.RunStart), m.RunEnd.Sub(m.ROIStart))
		}

		res, err := ExecuteOn(s, s.Build(""), interp.DefaultOptions(), ScaleTest, eng)
		if err != nil {
			t.Fatal(err)
		}
		if res.WallROI <= 0 || res.WallInit < 0 {
			t.Fatalf("%v: timing fields: roi=%v init=%v", eng, res.WallROI, res.WallInit)
		}
		if got := res.WallInit + res.WallROI; got != res.WallWhole {
			t.Fatalf("%v: init+roi = %v != whole %v", eng, got, res.WallWhole)
		}
		// ROI stats must be a subset of whole-program stats.
		if res.ROIStats.Steps > res.Stats.Steps || res.ROIStats.Sparse > res.Stats.Sparse {
			t.Fatalf("%v: ROI stats exceed whole-program stats", eng)
		}
	}
	// Every benchmark carries the roi marker.
	for _, spec := range All() {
		p := spec.Build("")
		found := false
		for _, name := range p.Order {
			ir.WalkInstrs(p.Funcs[name], func(in *ir.Instr) {
				if in.Op == ir.OpROI {
					found = true
				}
			})
		}
		if !found {
			t.Errorf("%s has no roi marker", spec.Abbr)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	s := Get("SSSP")
	prog := s.Build("")
	r1, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ret != r2.Ret || r1.EmitSum != r2.EmitSum {
		t.Fatal("repeated executions disagree (nondeterministic input or program)")
	}
}

func TestScalesGrow(t *testing.T) {
	s := Get("PR")
	prog := s.Build("")
	small, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleSmall, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if big.Stats.Steps <= small.Stats.Steps {
		t.Fatalf("ScaleSmall (%d steps) not larger than ScaleTest (%d)", big.Stats.Steps, small.Stats.Steps)
	}
}

// TestScaleNames: every scale parses back from its CLI spelling, and
// an unknown spelling is an error.
func TestScaleNames(t *testing.T) {
	for sc, name := range map[Scale]string{ScaleTest: "test", ScaleSmall: "small", ScaleFull: "full"} {
		if got := sc.String(); got != name {
			t.Errorf("Scale(%d).String() = %q, want %q", int(sc), got, name)
		}
		if got, err := ParseScale(name); err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, sc)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error(`ParseScale("bogus") succeeded`)
	}
	if got := Scale(7).String(); got != "Scale(7)" {
		t.Errorf("Scale(7).String() = %q", got)
	}
}
