package analysis_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memoir/internal/analysis"
	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/parser"
)

// intervalsSumFile pins the interval facts of every program in
// pinPrograms: one "<program> <sha256 of its dump>" line each.
const intervalsSumFile = "testdata/intervals.sum"

const pinGenSeeds = 400

type pinProgram struct {
	name string
	prog *ir.Program
}

// pinPrograms returns the 18 paper benchmarks, the checked-in .mir
// sources and generated programs for seeds 1..pinGenSeeds.
func pinPrograms(t *testing.T) []pinProgram {
	t.Helper()
	var out []pinProgram
	for _, s := range bench.All() {
		out = append(out, pinProgram{"bench/" + s.Abbr, s.Build("")})
	}
	files, err := filepath.Glob("../../testdata/*.mir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/*.mir sources (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, pinProgram{"mir/" + filepath.Base(f), p})
	}
	for seed := int64(1); seed <= pinGenSeeds; seed++ {
		out = append(out, pinProgram{fmt.Sprintf("gen/%d", seed), core.GenerateProgram(seed)})
	}
	return out
}

// dumpIntervals prints every non-top fact the analysis exposes for p:
// ValueAt for each argument, path index and result of each
// instruction, LoopBind for each for-each, Site summaries (without the
// Alloc pointer) and Conds. Positions are walk ordinals, so the dump
// carries no pointer values.
func dumpIntervals(p *ir.Program) string {
	ivs := analysis.IntervalsOf(p)
	var sb strings.Builder
	for _, name := range p.Order {
		fn := p.Funcs[name]
		fi := ivs.Func(fn)
		fmt.Fprintf(&sb, "func %s\n", name)
		i := 0
		ir.WalkInstrs(fn, func(in *ir.Instr) {
			fact := func(pos string, v *ir.Value) {
				if v == nil {
					return
				}
				if iv := fi.ValueAt(in, v); !iv.IsTop() {
					fmt.Fprintf(&sb, "  i%d %s %s %s\n", i, pos, v, iv)
				}
			}
			for j, a := range in.Args {
				fact(fmt.Sprintf("a%d", j), a.Base)
				for k, ix := range a.Path {
					if ix.Kind == ir.IdxValue {
						fact(fmt.Sprintf("a%d.p%d", j, k), ix.Val)
					}
				}
			}
			for j, r := range in.Results {
				fact(fmt.Sprintf("r%d", j), r)
			}
			if s := fi.Site(in); s != nil {
				keys, hasKeys := s.KeyRange()
				fmt.Fprintf(&sb, "  i%d site keys=%s/%v elems=%s adds=%d exact=%v\n",
					i, keys, hasKeys, s.Elems, s.AddPoints, s.Exact)
			}
			i++
		})
		l := 0
		ir.WalkNodes(fn.Body, func(n ir.Node) {
			fe, ok := n.(*ir.ForEach)
			if !ok {
				return
			}
			if k, v := fi.LoopBind(fe); !k.IsTop() || !v.IsTop() {
				fmt.Fprintf(&sb, "  loop%d bind %s %s\n", l, k, v)
			}
			l++
		})
		for _, c := range fi.Conds() {
			fmt.Fprintf(&sb, "  cond %s %s pos=%d loop=%v\n", c.Cond, c.Iv, c.Pos, c.Loop)
		}
	}
	return sb.String()
}

// TestIntervalFactsPinned: the interval facts of every pinned program
// hash to the recorded sum. A solver change that alters any fact
// fails here with that program's dump.
func TestIntervalFactsPinned(t *testing.T) {
	f, err := os.Open(intervalsSumFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	mismatches := 0
	progs := pinPrograms(t)
	for _, pp := range progs {
		dump := dumpIntervals(pp.prog)
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(dump)))
		fmt.Fprintf(&got, "%s %s\n", pp.name, sum)
		if want[pp.name] == sum {
			continue
		}
		mismatches++
		if mismatches <= 3 {
			t.Errorf("%s: facts hash %s, want %q; dump:\n%s", pp.name, sum, want[pp.name], dump)
		} else {
			t.Errorf("%s: facts hash %s, want %q", pp.name, sum, want[pp.name])
		}
	}
	if len(want) != len(progs) {
		t.Errorf("%s has %d programs, want %d", intervalsSumFile, len(want), len(progs))
	}
	if t.Failed() {
		t.Logf("recomputed %s:\n%s", intervalsSumFile, got.String())
	}
}

var intervalsSink *analysis.Intervals

// BenchmarkIntervalsOf times the interval analysis over the 18 paper
// benchmarks (one op = one pass over all of them).
func BenchmarkIntervalsOf(b *testing.B) {
	var progs []*ir.Program
	for _, s := range bench.All() {
		progs = append(progs, s.Build(""))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			intervalsSink = analysis.IntervalsOf(p)
		}
	}
}
