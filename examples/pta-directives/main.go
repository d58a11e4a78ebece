// PTA directives: the RQ4 performance-engineering walkthrough. The
// untuned heuristic shares one enumeration between the points-to
// map's pointer keys and its inner sets' object elements; with far
// more pointers than objects the inner bitsets end up almost empty,
// so aggregate operations (union, iteration) pay for bits that are
// never set. The `#pragma ade inner(noshare)` directive gives the
// inner sets their own object-only enumeration; inner(select(...))
// explores SparseBitSet and FlatSet instead.
//
// Run with: go run ./examples/pta-directives
package main

import (
	"fmt"
	"log"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/pipeline"
)

func main() {
	s := bench.Get("PTA")
	baseline := measure(s, "", nil)
	fmt.Printf("%-22s %12s %14s %10s\n", "config", "modeled(ms)", "speedup", "memory")
	report := func(name string, m *run) {
		fmt.Printf("%-22s %12.2f %13.2fx %9.1f%%\n",
			name, m.modeled/1e6, baseline.modeled/m.modeled, 100*m.peak/baseline.peak)
	}
	report("memoir (baseline)", baseline)
	for _, v := range []struct{ name, variant string }{
		{"ade (untuned)", ""},
		{"ade inner(noshare)", "noshare"},
		{"ade inner(noenum)", "noenumerate"},
		{"ade inner(sparse)", "sparse"},
		{"ade inner(flat)", "flat"},
	} {
		opts := core.DefaultOptions()
		m := measure(s, v.variant, &opts)
		if m.checksum != baseline.checksum {
			log.Fatalf("%s: output mismatch", v.name)
		}
		report(v.name, m)
	}
	fmt.Println("\nThe untuned sharing regresses; inner(noshare) restores the win (RQ4).")
}

type run struct {
	modeled  float64
	peak     float64
	checksum uint64
}

func measure(s *bench.Spec, variant string, ade *core.Options) *run {
	prog := s.Build(variant)
	if ade != nil {
		if _, err := pipeline.Transform(prog, *ade); err != nil {
			log.Fatal(err)
		}
	}
	res, err := bench.ExecuteOn(s, prog, interp.DefaultOptions(), bench.ScaleSmall, bench.EngineVM)
	if err != nil {
		log.Fatal(err)
	}
	return &run{
		modeled:  res.Stats.ModeledNanos(interp.ArchIntelX64),
		peak:     float64(res.Peak),
		checksum: res.EmitSum,
	}
}
