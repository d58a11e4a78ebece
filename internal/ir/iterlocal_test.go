package ir_test

import (
	"fmt"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/difftest"
	"memoir/internal/ir"
)

// iterLocalByUses is the classification IterLocalAllocs makes,
// computed from the map-based def-use chains: an allocation inside a
// loop is iteration-local when none of its Redefs is a header or exit
// phi of an enclosing loop.
func iterLocalByUses(fn *ir.Func) map[*ir.Instr]bool {
	out := map[*ir.Instr]bool{}
	ui := ir.ComputeUses(fn)
	var walk func(b *ir.Block, forbidden []map[*ir.Instr]bool)
	walk = func(b *ir.Block, forbidden []map[*ir.Instr]bool) {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ir.Instr:
				if n.Op != ir.OpNew || len(forbidden) == 0 {
					continue
				}
				local := true
				for _, v := range ui.Redefs(n) {
					for _, f := range forbidden {
						if v.Def != nil && f[v.Def] {
							local = false
						}
					}
				}
				if local {
					out[n] = true
				}
			case *ir.If:
				walk(n.Then, forbidden)
				walk(n.Else, forbidden)
			case *ir.ForEach:
				walk(n.Body, append(forbidden, phiSet(n.HeaderPhis, n.ExitPhis)))
			case *ir.DoWhile:
				walk(n.Body, append(forbidden, phiSet(n.HeaderPhis, n.ExitPhis)))
			}
		}
	}
	walk(fn.Body, nil)
	return out
}

func phiSet(lists ...[]*ir.Instr) map[*ir.Instr]bool {
	s := map[*ir.Instr]bool{}
	for _, l := range lists {
		for _, p := range l {
			s[p] = true
		}
	}
	return s
}

// TestIterLocalAllocsMatchesUses: the slot-array classification agrees
// with the def-use-chain one on every suite program and variant, raw
// and after ADE, every bound-2 skeleton and 200 generated programs.
func TestIterLocalAllocsMatchesUses(t *testing.T) {
	var progs []*ir.Program
	var names []string
	for _, s := range bench.All() {
		for _, variant := range append([]string{""}, s.Variants...) {
			for _, ade := range []bool{false, true} {
				prog := s.Build(variant)
				if ade {
					if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
						t.Fatalf("%s/%s: %v", s.Abbr, variant, err)
					}
				}
				progs = append(progs, prog)
				names = append(names, fmt.Sprintf("%s/%s ade=%v", s.Abbr, variant, ade))
			}
		}
	}
	for _, sk := range difftest.EnumeratePrograms(2) {
		progs = append(progs, sk.Build())
		names = append(names, sk.ID)
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs = append(progs, core.GenerateProgram(seed))
		names = append(names, fmt.Sprintf("seed %d", seed))
	}
	inLoop := 0
	for i, prog := range progs {
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			ir.FinalizeSlots(fn)
			got, want := ir.IterLocalAllocs(fn), iterLocalByUses(fn)
			inLoop += len(want)
			if len(got) != len(want) {
				t.Errorf("%s @%s: %d iteration-local allocations, want %d", names[i], name, len(got), len(want))
				continue
			}
			for in := range want {
				if !got[in] {
					t.Errorf("%s @%s: %v not classified iteration-local", names[i], name, in)
				}
			}
		}
	}
	if inLoop == 0 {
		t.Fatal("no iteration-local allocation in the corpus")
	}
}
