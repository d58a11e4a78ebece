package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"memoir/internal/bench"
	"memoir/internal/interp"
)

// The benchmark regression gate compares deterministic op counts —
// not wall clock — against a checked-in baseline
// (testdata/baseline_counts.json), so it is stable on noisy CI
// runners. Both engines and every collection implementation iterate
// in deterministic order, making the counts exactly reproducible.

// CountsSchema identifies the baseline file format.
const CountsSchema = "adebench-counts/v1"

// OpCounts is the deterministic cost summary of one benchmark under
// one configuration.
type OpCounts struct {
	Steps   uint64 `json:"steps"`   // interpreted instructions
	CollOps uint64 `json:"collOps"` // keyed collection operations
	Sparse  uint64 `json:"sparse"`  // searching accesses
	Dense   uint64 `json:"dense"`   // directly-indexed accesses
	Trans   uint64 `json:"trans"`   // @enc/@dec/@add translation calls
}

// CountsFile is the on-disk shape of the baseline and of -counts
// output.
type CountsFile struct {
	Schema string `json:"schema"`
	Scale  string `json:"scale"`
	// Counts[bench][config] holds the per-cell summary.
	Counts map[string]map[string]OpCounts `json:"counts"`
}

// gateConfigs are the configurations the gate tracks: the untouched
// baseline and the full ADE pipeline.
func gateConfigs() []CompilerConfig {
	return []CompilerConfig{CfgMemoir, CfgADE}
}

// CollectCounts runs every benchmark under the gate configurations
// once on the VM and records the whole-program op counts. The counts
// are engine-invariant (difftest pins the interpreter's to the VM's
// exactly), so the baseline file also stands for the reference
// engine. bud bounds each execution (the zero value imposes no
// limits); a budgeted run that exhausts its budget fails with a
// structured error rather than hanging CI.
func CollectCounts(sc bench.Scale, bud Budget) (*CountsFile, error) {
	out := &CountsFile{
		Schema: CountsSchema,
		Scale:  sc.String(),
		Counts: map[string]map[string]OpCounts{},
	}
	for _, s := range bench.All() {
		per := map[string]OpCounts{}
		for _, cfg := range gateConfigs() {
			prog, err := buildProgram(s, cfg, sc)
			if err != nil {
				return nil, err
			}
			res, err := executeBudgeted(s, prog, interpOpts(cfg, false), sc, bud)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", s.Abbr, cfg.Name, err)
			}
			st := res.Stats
			per[cfg.Name] = OpCounts{
				Steps:   st.Steps,
				CollOps: st.CollOps(),
				Sparse:  st.Sparse,
				Dense:   st.Dense,
				Trans: st.Counts[interp.ImplEnum][interp.OKEnc] +
					st.Counts[interp.ImplEnum][interp.OKDec] +
					st.Counts[interp.ImplEnum][interp.OKAdd],
			}
		}
		out.Counts[s.Abbr] = per
	}
	return out, nil
}

// WriteCounts writes the counts file as indented JSON.
func WriteCounts(c *CountsFile, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCounts loads a counts file and checks its schema.
func ReadCounts(path string) (*CountsFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c CountsFile
	if err := json.NewDecoder(f).Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.Schema != CountsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q (regenerate with -counts)", path, c.Schema, CountsSchema)
	}
	return &c, nil
}

// CompareCounts gates current against baseline: any tracked metric
// that grew by more than tol (e.g. 0.05 for 5%) is a regression, as is
// any cell missing from the baseline (regenerate it) or from the
// current run (a benchmark disappeared). Returned strings describe the
// failures; empty means the gate passes.
func CompareCounts(baseline, current *CountsFile, tol float64) []string {
	var fails []string
	if baseline.Scale != current.Scale {
		fails = append(fails, fmt.Sprintf("scale mismatch: baseline %q vs current %q", baseline.Scale, current.Scale))
		return fails
	}
	var benches []string
	for abbr := range current.Counts {
		benches = append(benches, abbr)
	}
	sort.Strings(benches)
	for _, abbr := range benches {
		basePer, ok := baseline.Counts[abbr]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: not in baseline; regenerate baseline_counts.json with -counts", abbr))
			continue
		}
		var cfgs []string
		for name := range current.Counts[abbr] {
			cfgs = append(cfgs, name)
		}
		sort.Strings(cfgs)
		for _, name := range cfgs {
			base, ok := basePer[name]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s/%s: not in baseline; regenerate", abbr, name))
				continue
			}
			cur := current.Counts[abbr][name]
			check := func(metric string, b, c uint64) {
				if b == 0 || c <= b {
					return
				}
				growth := float64(c-b) / float64(b)
				if growth > tol {
					fails = append(fails, fmt.Sprintf("%s/%s: %s regressed %.1f%% (%d -> %d)",
						abbr, name, metric, 100*growth, b, c))
				}
			}
			check("steps", base.Steps, cur.Steps)
			check("collOps", base.CollOps, cur.CollOps)
			check("sparse", base.Sparse, cur.Sparse)
			check("trans", base.Trans, cur.Trans)
		}
	}
	for abbr := range baseline.Counts {
		if _, ok := current.Counts[abbr]; !ok {
			fails = append(fails, fmt.Sprintf("%s: in baseline but missing from this run", abbr))
		}
	}
	sort.Strings(fails)
	return fails
}

// Gate collects the current counts at sc and compares them against
// the baseline file, writing a verdict to w. bud bounds each execution
// (zero = no limits).
func Gate(sc bench.Scale, baselinePath string, tol float64, bud Budget, w io.Writer) error {
	baseline, err := ReadCounts(baselinePath)
	if err != nil {
		return err
	}
	current, err := CollectCounts(sc, bud)
	if err != nil {
		return err
	}
	fails := CompareCounts(baseline, current, tol)
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(w, "REGRESSION:", f)
		}
		return fmt.Errorf("op-count gate: %d regression(s) over %.0f%% tolerance", len(fails), 100*tol)
	}
	fmt.Fprintf(w, "op-count gate: %d benchmarks x %d configs within %.0f%% of %s\n",
		len(current.Counts), len(gateConfigs()), 100*tol, baselinePath)
	return nil
}
