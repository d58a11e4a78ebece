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

func TestROITimingDecomposes(t *testing.T) {
	s := Get("BFS")
	prog := s.Build("")
	res, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallROI <= 0 || res.WallInit < 0 {
		t.Fatalf("timing fields: roi=%v init=%v", res.WallROI, res.WallInit)
	}
	if got := res.WallInit + res.WallROI; got != res.WallWhole {
		t.Fatalf("init+roi = %v != whole %v", got, res.WallWhole)
	}
	// ROI stats must be a subset of whole-program stats.
	if res.ROIStats.Steps > res.Stats.Steps || res.ROIStats.Sparse > res.Stats.Sparse {
		t.Fatal("ROI stats exceed whole-program stats")
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
