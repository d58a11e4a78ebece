package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-check needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortestRunsReportEveryMetric runs every workload for the
// shortest time, untraced and traced, and checks that each run reports
// every metric BENCHMARK.json names, with nothing failed.
func TestShortestRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark six times")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 5, seconds: 1, trace: trace, root: "..", out: t.TempDir()}
			res, err := run(cfg, func(string, ...any) {})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: no metric %s", w.Name, trace, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the program set and
// the request sequence, and that another seed changes the sequence.
func TestSameSeedSameInputs(t *testing.T) {
	a, err := setupCompile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupCompile()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].abbr != b[i].abbr || a[i].text != b[i].text || a[i].hash != b[i].hash {
			t.Fatalf("program %d differs between two setups", i)
		}
	}
	progs, err := loadServePrograms("..")
	if err != nil {
		t.Fatal(err)
	}
	requests := func(seed int64) ([]reqSpec, []string) {
		seq := newSequence(progs, seed)
		var specs []reqSpec
		var texts []string
		for i := 0; i < 500; i++ {
			r := seq.next()
			specs = append(specs, r)
			if r.cold {
				texts = append(texts, progs[r.prog].variant(r.variant))
			}
		}
		return specs, texts
	}
	s1, t1 := requests(7)
	s2, t2 := requests(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("seed 7 gave two different request sequences")
	}
	if s3, _ := requests(8); reflect.DeepEqual(s1, s3) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
	seen := map[string]bool{}
	for _, text := range t1 {
		if seen[text] {
			t.Fatal("a cold variant repeats")
		}
		seen[text] = true
	}
}

// TestColdVariantsKeepTheOracle checks that renaming leaves a cold
// variant's result equal to its original's on the interpreter.
func TestColdVariantsKeepTheOracle(t *testing.T) {
	progs, err := loadServePrograms("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		v := p.variant(12345)
		if v == p.text {
			t.Fatalf("%s: variant equals the original", p.name)
		}
		got, err := interpOutcome(v, p.args)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.oracle {
			t.Errorf("%s: variant gives %+v, original %+v", p.name, got, p.oracle)
		}
	}
}
