package core_test

import (
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/difftest"
	"memoir/internal/ir"
)

// TestJoinGainMemoMatchesFresh: Algorithm 3 memoizes a candidate's
// benefit until a facet joins it and a single facet's benefit until
// the linkage is rebuilt. Every answer the sweep takes from those
// memos must equal a fresh evaluation of the same facet sets — over
// the suite programs and every skeleton of adediff -enum 2, under the
// configurations that sweep (propagation on and off). Answers taken
// after an accepted join are the ones that catch a stale candidate
// memo.
func TestJoinGainMemoMatchesFresh(t *testing.T) {
	type input struct {
		name string
		prog func() *ir.Program
	}
	var inputs []input
	for _, s := range bench.All() {
		inputs = append(inputs, input{s.Abbr, func() *ir.Program { return s.Build("") }})
	}
	for _, sk := range difftest.EnumeratePrograms(2) {
		inputs = append(inputs, input{sk.ID, sk.Build})
	}
	var probes, afterJoin int
	for _, cfg := range core.OptionsMatrix() {
		if cfg.Name != "ade" && cfg.Name != "ade-nopropagation" {
			continue
		}
		for _, in := range inputs {
			got, err := core.SweepJoinProbes(in.prog(), cfg.Opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, cfg.Name, err)
			}
			for i, p := range got {
				if p.Sum != p.FreshSum || p.Cup != p.FreshCup {
					t.Errorf("%s/%s probe %d: memoized sum %d union %d, fresh sum %d union %d",
						in.name, cfg.Name, i, p.Sum, p.Cup, p.FreshSum, p.FreshCup)
				}
				if p.AfterJoin {
					afterJoin++
				}
			}
			probes += len(got)
		}
	}
	t.Logf("%d probes, %d after an accepted join", probes, afterJoin)
	if afterJoin == 0 {
		t.Error("no probe followed an accepted join: the corpus no longer exercises memo invalidation")
	}
}
