package bench_test

import (
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
)

// denseTailBenches are the suite members carrying the dense-keyed
// histogram tail (emitDenseHistTail): on each, static enumeration must
// fire and strictly reduce the runtime translation count versus the
// ade-nostatic ablation, with identical observable output.
var denseTailBenches = []string{"BFS", "IS", "KC"}

func trans(r *bench.Result) uint64 {
	c := &r.Stats.Counts[interp.ImplEnum]
	return c[interp.OKEnc] + c[interp.OKDec] + c[interp.OKAdd]
}

func TestDenseTailStaticEnumReducesTranslations(t *testing.T) {
	for _, abbr := range denseTailBenches {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			s := bench.Get(abbr)
			if s == nil {
				t.Fatalf("benchmark %s not registered", abbr)
			}

			on := s.Build("")
			repOn, err := core.Apply(on, core.DefaultOptions())
			if err != nil {
				t.Fatalf("ADE: %v", err)
			}
			if len(repOn.Static) == 0 {
				t.Fatalf("static-enum fired on no site; report:\n%s", repOn)
			}

			off := s.Build("")
			offOpts := core.DefaultOptions()
			offOpts.StaticEnum = false
			if _, err := core.Apply(off, offOpts); err != nil {
				t.Fatalf("ADE (nostatic): %v", err)
			}

			rOn, err := bench.ExecuteOn(s, on, interp.DefaultOptions(), bench.ScaleTest, bench.EngineInterp)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			rOff, err := bench.ExecuteOn(s, off, interp.DefaultOptions(), bench.ScaleTest, bench.EngineInterp)
			if err != nil {
				t.Fatalf("execute (nostatic): %v", err)
			}

			if rOn.Ret != rOff.Ret || rOn.EmitSum != rOff.EmitSum || rOn.EmitCount != rOff.EmitCount {
				t.Fatalf("output diverged: static (ret=%d emit=%d/%d) vs nostatic (ret=%d emit=%d/%d)",
					rOn.Ret, rOn.EmitCount, rOn.EmitSum, rOff.Ret, rOff.EmitCount, rOff.EmitSum)
			}
			tOn, tOff := trans(rOn), trans(rOff)
			t.Logf("%s: translations static=%d nostatic=%d (saved %d)", abbr, tOn, tOff, tOff-tOn)
			if tOn >= tOff {
				t.Errorf("translations: static=%d, nostatic=%d — static enumeration saved nothing", tOn, tOff)
			}
		})
	}
}
