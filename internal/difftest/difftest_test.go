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
	rpt := &Report{Schema: Schema, Scale: "test", Shard: Shard{1, 4}.String(),
		Configs: []string{"baseline-hash", "ade"}, Sources: []string{"BFS"}}
	rpt.add(Entry{Source: "BFS", Config: "baseline-hash", Outcome: OutcomeOK, Ret: 7, EmitSum: 9, EmitCount: 1, Steps: 100, CollOps: 40})
	rpt.add(Entry{Source: "BFS", Config: "ade", Outcome: OutcomeDiverged, Ret: 8, EmitSum: 10, EmitCount: 1, Enc: 3, Dec: 2, Add: 1, EnumClasses: 2})
	rpt.Divergences = []Divergence{{Source: "BFS", Config: "ade", Kind: OutcomeDiverged, WantRet: 7, GotRet: 8}}
	if rpt.Cells != 2 || rpt.Diverged != 1 || len(rpt.Entries) != 1 || rpt.OK() {
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
	if got.Shard != "1/4" || got.Scale != "test" || len(got.Sources) != 1 || got.Cells != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	e := got.Entries[0]
	if e.Source != "BFS" || e.Config != "ade" || e.Outcome != OutcomeDiverged || e.EnumClasses != 2 || e.Enc != 3 {
		t.Fatalf("entry round trip: %+v", e)
	}
	if len(got.Divergences) != 1 || got.Divergences[0].GotRet != 8 || got.Divergences[0].Source != "BFS" {
		t.Fatalf("divergence round trip: %+v", got.Divergences)
	}

	// A stale or foreign schema must be refused.
	bad := strings.Replace(buf.String(), Schema, "adediff/v0", 1)
	if _, err := DecodeReport(strings.NewReader(bad)); err == nil {
		t.Fatal("DecodeReport accepted a wrong schema")
	}
}

// TestBenchmarkDiff runs a real slice of the matrix on one benchmark
// and checks the harness reports clean equivalence, and that the ade
// cell shows non-trivial translation activity (read from the cell
// function, since the report keeps no clean cells).
func TestBenchmarkDiff(t *testing.T) {
	rpt, err := Run(Options{
		Scale:      bench.ScaleTest,
		Benchmarks: []string{"BFS"},
		Configs:    []string{"baseline-hash", "baseline-swiss", "ade", "ade-sparse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() || rpt.Cells != 4 || len(rpt.Entries) != 0 {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("expected 4 clean cells:\n%s", buf.String())
	}
	src := specSource(bench.Get("BFS"), bench.ScaleTest)
	ref, err := reference(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	e, _ := runCell(src, Config{Name: "ade", ADE: &opts}, faults.Point{}, ref)
	if e.Outcome != OutcomeOK || e.EnumClasses == 0 || e.Enc+e.Add == 0 {
		t.Fatalf("ade cell shows no enumeration activity: %+v", e)
	}
}

// TestEngineTwinClean runs interpreter/VM twin columns on one
// benchmark: the VM cells must match the reference output and their
// twins' op counts exactly (TestEngineCountDivergence proves that
// per-cell check fires).
func TestEngineTwinClean(t *testing.T) {
	rpt, err := Run(Options{
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
}

// TestEngineCountDivergence proves the op-count comparator actually
// fires: an engine-twin pair running *different programs* (baseline
// vs. ADE-transformed) has identical output but different counts, and
// must be flagged as an "op-counts" divergence.
func TestEngineCountDivergence(t *testing.T) {
	opts := core.DefaultOptions()
	rpt, err := Run(Options{
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

// checkKnownDivergence proves the sweep actually fails when outputs
// differ: a matrix column whose post-ADE program is broken on purpose
// must be reported as a divergence of source (and survive ir.Verify, so
// only the output comparison can catch it), with reduced as its reduced
// prefix.
func checkKnownDivergence(t *testing.T, o Options, source, reduced string) {
	t.Helper()
	opts := core.DefaultOptions()
	o.Matrix = []Config{
		{Name: "ade", ADE: &opts},
		{Name: "ade-broken", ADE: &opts, Mutate: breakEmits},
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.OK() {
		t.Fatalf("%s: differ did not flag the deliberately broken rewrite", source)
	}
	if rpt.Diverged != 1 || len(rpt.Divergences) != 1 || len(rpt.Entries) != 1 {
		t.Fatalf("%s: want exactly one divergence, got %+v", source, rpt.Divergences)
	}
	d := rpt.Divergences[0]
	if d.Source != source || d.Config != "ade-broken" || d.Kind != OutcomeDiverged || d.Reduced != reduced {
		t.Fatalf("divergence attributed wrongly: %+v", d)
	}
	if d.GotEmitSum == d.WantEmitSum {
		t.Fatalf("%s: divergence detail not captured: %+v", source, d)
	}
	// The cell entry itself must carry the outcome too.
	if e := rpt.Entries[0]; e.Config != "ade-broken" || e.Outcome != OutcomeDiverged {
		t.Fatalf("%s: broken cell not marked diverged: %+v", source, e)
	}
}

// TestKnownDivergenceBench: a broken rewrite is caught on a benchmark.
func TestKnownDivergenceBench(t *testing.T) {
	checkKnownDivergence(t, Options{Scale: bench.ScaleTest, Benchmarks: []string{"BFS"}}, "BFS", "")
}

// TestKnownDivergenceRandom covers the same property on a generated
// program.
func TestKnownDivergenceRandom(t *testing.T) {
	checkKnownDivergence(t, Options{Seed: 3}, "seed3", "")
}

// TestKnownDivergenceSkeleton covers it on an enumerated skeleton,
// whose divergence also carries its reduced prefix.
func TestKnownDivergenceSkeleton(t *testing.T) {
	checkKnownDivergence(t, Options{IDs: []string{"skS:pm0.tms.lm0.fs0"}}, "skS:pm0.tms.lm0.fs0", "skS:pm0")
}

// TestRandomDiffClean runs a few seeds across the full matrix.
func TestRandomDiffClean(t *testing.T) {
	rpt, err := Run(Options{Seed: 1, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.OK() {
		var buf bytes.Buffer
		rpt.Summary(&buf)
		t.Fatalf("random diff not clean:\n%s", buf.String())
	}
	if len(rpt.Sources) != 5 || rpt.Sources[4] != "seed5" || rpt.Cells != 5*len(rpt.Configs) {
		t.Fatalf("random cells missing: sources %v, %d cells", rpt.Sources, rpt.Cells)
	}
}

// TestPGOCellsMatchProfile: for generated programs and under injected
// faults the ade-pgo column compiles under a profile recorded for the
// program it transforms, exactly like on benchmarks, instead of being
// the ade column under another name.
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
		iopts := interpOpts(pgo)
		fc, _ := inject(pgo, &iopts, pt)
		check("fault "+name, specSource(bench.Get("BFS"), bench.ScaleTest), fc)
	}
}

// TestShardedRunsCoverSuite checks that the 4-way CI sharding covers
// every benchmark exactly once.
func TestShardedRunsCoverSuite(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		rpt, err := Run(Options{
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
		for _, name := range rpt.Sources {
			seen[name]++
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
