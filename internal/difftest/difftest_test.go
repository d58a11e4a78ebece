package difftest

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/faults"
	"memoir/internal/ir"
)

func TestMatrixShape(t *testing.T) {
	m := Matrix()
	if m[0].Name != "baseline-hash" || m[0].ADE != nil {
		t.Fatalf("matrix must lead with the hash baseline, got %+v", m[0])
	}
	seen := map[string]bool{}
	ade, vm := 0, 0
	for _, c := range m {
		if seen[c.Name] {
			t.Fatalf("duplicate config name %q", c.Name)
		}
		seen[c.Name] = true
		if c.ADE != nil {
			ade++
		}
		if c.Engine == bench.EngineVM {
			vm++
			base := BaseName(c.Name)
			if base == c.Name || !seen[base] {
				t.Fatalf("vm column %q has no interpreter twin", c.Name)
			}
		}
	}
	if ade < 16 {
		t.Fatalf("matrix has %d ADE configurations, want >= 16 (both engines)", ade)
	}
	if vm*2 != len(m) {
		t.Fatalf("matrix has %d vm columns of %d; every column needs an engine twin", vm, len(m))
	}
}

func TestShardParse(t *testing.T) {
	for spec, want := range map[string]Shard{
		"":    {0, 1},
		"0/4": {0, 4},
		"3/4": {3, 4},
	} {
		got, err := ParseShard(spec)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"4/4", "-1/4", "1", "a/b", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

func TestShardPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 100} {
		for _, count := range []int{1, 2, 4, 5} {
			seen := map[int]int{}
			for i := 0; i < count; i++ {
				part := Partition(n, Shard{i, count})
				for _, j := range part {
					seen[j]++
				}
			}
			if len(seen) != n {
				t.Fatalf("n=%d count=%d: union covers %d items", n, count, len(seen))
			}
			for j, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d count=%d: item %d assigned %d times", n, count, j, c)
				}
			}
		}
	}
	if got := Partition(5, Shard{}); len(got) != 5 {
		t.Fatalf("zero shard must cover everything, got %v", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rpt := NewReport(bench.ScaleTest, Shard{1, 4}, []string{"baseline-hash", "ade"})
	rpt.Benchmarks = []BenchReport{{
		Abbr: "BFS",
		Entries: []Entry{
			{Config: "baseline-hash", Ret: 7, EmitSum: 9, EmitCount: 1, Steps: 100, CollOps: 40},
			{Config: "ade", Ret: 8, EmitSum: 10, EmitCount: 1, Enc: 3, Dec: 2, Add: 1, EnumClasses: 2, Diverged: true},
		},
	}}
	rpt.Divergences = []Divergence{{Bench: "BFS", Config: "ade", WantRet: 7, GotRet: 8}}
	rpt.Finish()
	if rpt.Cells != 2 || rpt.Diverged != 1 || rpt.OK() {
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
	if got.Shard != "1/4" || got.Scale != "test" || len(got.Benchmarks) != 1 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	e := got.Benchmarks[0].Entries[1]
	if e.Config != "ade" || !e.Diverged || e.EnumClasses != 2 || e.Enc != 3 {
		t.Fatalf("entry round trip: %+v", e)
	}
	if len(got.Divergences) != 1 || got.Divergences[0].GotRet != 8 {
		t.Fatalf("divergence round trip: %+v", got.Divergences)
	}

	// A stale or foreign schema must be refused.
	bad := strings.Replace(buf.String(), Schema, "adediff/v0", 1)
	if _, err := DecodeReport(strings.NewReader(bad)); err == nil {
		t.Fatal("DecodeReport accepted a wrong schema")
	}
}

// TestBenchmarkDiff runs a real slice of the matrix on one benchmark
// and checks the harness reports clean equivalence with non-trivial
// translation activity.
func TestBenchmarkDiff(t *testing.T) {
	rpt, err := Run(RunOptions{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Configs:    []string{"baseline-hash", "baseline-swiss", "ade", "ade-sparse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || rpt.Cells != 4 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("expected 4 clean cells:\n%s", buf.String())
	}
	var ade *Entry
	for i, e := range rpt.Benchmarks[0].Entries {
		if e.Config == "ade" {
			ade = &rpt.Benchmarks[0].Entries[i]
		}
	}
	if ade == nil || ade.EnumClasses == 0 || ade.Enc+ade.Add == 0 {
		t.Fatalf("ade cell shows no enumeration activity: %+v", ade)
	}
}

// TestEngineTwinClean runs interpreter/VM twin columns on one
// benchmark: the VM cells must match the reference output and their
// twins' op counts exactly.
func TestEngineTwinClean(t *testing.T) {
	rpt, err := Run(RunOptions{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Configs:    []string{"baseline-hash", "baseline-hash@vm", "ade", "ade@vm", "ade-sparse", "ade-sparse@vm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || rpt.Cells != 6 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("expected 6 clean cells:\n%s", buf.String())
	}
	byName := map[string]Entry{}
	for _, e := range rpt.Benchmarks[0].Entries {
		byName[e.Config] = e
	}
	for _, base := range []string{"baseline-hash", "ade", "ade-sparse"} {
		i, v := byName[base], byName[base+EngineSuffix]
		if i.Engine != "interp" || v.Engine != "vm" {
			t.Fatalf("engine fields wrong: %+v %+v", i, v)
		}
		v.Engine, v.Config = i.Engine, i.Config
		if i != v {
			t.Fatalf("%s: engine twins disagree:\n  interp: %+v\n  vm:     %+v", base, i, v)
		}
	}
}

// TestEngineCountDivergence proves the op-count comparator actually
// fires: an engine-twin pair running *different programs* (baseline
// vs. ADE-transformed) has identical output but different counts, and
// must be flagged as an "op-counts" divergence.
func TestEngineCountDivergence(t *testing.T) {
	opts := core.DefaultOptions()
	rpt, err := Run(RunOptions{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Matrix: []Config{
			{Name: "skew"},
			{Name: "skew@vm", Engine: bench.EngineVM, ADE: &opts},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.OK() || rpt.Diverged != 1 || len(rpt.Divergences) != 1 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("want exactly one op-count divergence:\n%s", buf.String())
	}
	d := rpt.Divergences[0]
	if d.Kind != "op-counts" || d.Config != "skew@vm" || d.Detail == "" {
		t.Fatalf("divergence misclassified: %+v", d)
	}
}

// breakEmits rewires every @emit to a constant — a valid program with
// deliberately wrong output, standing in for a buggy rewrite.
func breakEmits(p *ir.Program) {
	for _, name := range p.Order {
		fn := p.Funcs[name]
		ir.WalkInstrs(fn, func(in *ir.Instr) {
			if in.Op == ir.OpEmit {
				in.Args[0] = ir.Op(ir.ConstInt(ir.TU64, 0xDEADBEEF))
			}
		})
	}
}

// TestKnownDivergenceBench proves the differ actually fails when
// outputs differ: a matrix column whose post-ADE program is broken on
// purpose must be reported as a divergence (and survive ir.Verify, so
// only the output comparison can catch it).
func TestKnownDivergenceBench(t *testing.T) {
	opts := core.DefaultOptions()
	rpt, err := Run(RunOptions{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Matrix: []Config{
			{Name: "ade"},
			{Name: "ade-broken", ADE: &opts, Mutate: breakEmits},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.OK() {
		t.Fatal("differ did not flag the deliberately broken rewrite")
	}
	if rpt.Diverged != 1 || len(rpt.Divergences) != 1 {
		t.Fatalf("want exactly one divergence, got %+v", rpt.Divergences)
	}
	d := rpt.Divergences[0]
	if d.Bench != "BFS" || d.Config != "ade-broken" {
		t.Fatalf("divergence attributed wrongly: %+v", d)
	}
	if d.GotEmitSum == d.WantEmitSum {
		t.Fatalf("divergence detail not captured: %+v", d)
	}
	// The cell entry itself must carry the flag too.
	for _, e := range rpt.Benchmarks[0].Entries {
		if e.Config == "ade-broken" && !e.Diverged {
			t.Fatalf("broken cell not marked diverged: %+v", e)
		}
	}
}

// TestKnownDivergenceRandom covers the same property on the
// random-program path.
func TestKnownDivergenceRandom(t *testing.T) {
	opts := core.DefaultOptions()
	rpt, err := RunRandom(RandomOptions{
		Seed: 3, Count: 2,
		Matrix: []Config{
			{Name: "ade", ADE: &opts},
			{Name: "ade-broken", ADE: &opts, Mutate: breakEmits},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Diverged != 2 { // one broken cell per seed
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("want 2 divergences:\n%s", buf.String())
	}
	for _, d := range rpt.Divergences {
		if d.Config != "ade-broken" || d.Seed == 0 {
			t.Fatalf("divergence attributed wrongly: %+v", d)
		}
	}
}

// TestRandomDiffClean runs a few seeds across the full matrix.
func TestRandomDiffClean(t *testing.T) {
	rpt, err := RunRandom(RandomOptions{Seed: 1, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("random diff not clean:\n%s", buf.String())
	}
	if rpt.Random == nil || len(rpt.Random.Entries) != 5*len(rpt.Configs) {
		t.Fatalf("random entries missing: %+v", rpt.Random)
	}
}

// TestPGOCellsMatchProfile: in the random-program mode and the fault
// sweep the ade-pgo column compiles under a profile recorded for the
// program it transforms, exactly like the benchmark mode, instead of
// being the ade column under another name.
func TestPGOCellsMatchProfile(t *testing.T) {
	var pgo Config
	for _, c := range Matrix() {
		if c.Name == "ade-pgo" {
			pgo = c
		}
	}
	if !pgo.PGO {
		t.Fatal("matrix has no ade-pgo column")
	}
	check := func(what string, src source, c Config) {
		t.Helper()
		_, rep, err := build(src, c)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !strings.HasPrefix(rep.Profile, "weighted") {
			t.Errorf("%s: report.Profile = %q, want weighted", what, rep.Profile)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		check(fmt.Sprintf("seed %d", seed), seedSource(seed), pgo)
	}
	for _, name := range []string{"pass-panic:transform", "enum-corrupt:1"} {
		pt, err := faults.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fc, _ := faulted(pgo, pt, 0)
		check("fault sweep "+name, specSource(bench.Get("BFS"), bench.ScaleTest), fc)
	}
}

// TestShardedRunsCoverSuite checks that the 4-way CI sharding covers
// every benchmark exactly once.
func TestShardedRunsCoverSuite(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		rpt, err := Run(RunOptions{
			Scale:   bench.ScaleTest,
			Shard:   Shard{i, 4},
			Configs: []string{"baseline-hash", "ade"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rpt.OK() {
			t.Fatalf("shard %d not clean", i)
		}
		for _, b := range rpt.Benchmarks {
			seen[b.Abbr]++
		}
	}
	all := bench.All()
	if len(seen) != len(all) {
		t.Fatalf("shards cover %d of %d benchmarks", len(seen), len(all))
	}
	for abbr, n := range seen {
		if n != 1 {
			t.Fatalf("benchmark %s ran in %d shards", abbr, n)
		}
	}
}
