// Command adebench regenerates the paper's tables and figures.
//
// Usage:
//
//	adebench -all                        # everything
//	adebench -fig 5 -scale small         # one figure
//	adebench -table 2 -trials 5
//	adebench -rq4
//
// Figures: 4, 5, 6, 7a, 7b, 7c, 8, 9, 10. Tables: 2, 3.
//
// The op-count regression gate (CI):
//
//	adebench -scale test -counts testdata/baseline_counts.json   # (re)generate baseline
//	adebench -scale test -gate testdata/baseline_counts.json     # fail on >5% regressions
//
// Every figure, gate and report runs on the bytecode VM. The gate
// compares deterministic op counts, not wall clock, so it is stable
// on shared CI runners.
//
// Profile collection:
//
//	adebench -profile-out suite.adeprofile.json   # suite-merged adeprofile/v1
//	adebench -pgo                                 # profile-guided extension study
//
// The merged profile feeds back through adec -profile (or
// core.Options.SiteProfile); see DESIGN.md §13.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"memoir/internal/bench"
	"memoir/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate (4,5,6,7a,7b,7c,8,9,10)")
		tab     = flag.String("table", "", "table to regenerate (2,3)")
		rq4     = flag.Bool("rq4", false, "run the RQ4 PTA case study")
		pgo     = flag.Bool("pgo", false, "run the profile-guided heuristic extension study")
		all     = flag.Bool("all", false, "regenerate everything")
		scale   = flag.String("scale", "small", "workload scale: test, small, full")
		trials  = flag.Int("trials", 3, "timing trials per configuration (median reported)")
		outDir  = flag.String("out", "", "also write each experiment's table to <dir>/<name>.txt (artifact style)")
		counts  = flag.String("counts", "", "write the op-count baseline to this file and exit")
		gate    = flag.String("gate", "", "compare current op counts against this baseline, failing on regressions")
		tol     = flag.Float64("tol", 0.05, "op-count regression tolerance for -gate (0.05 = 5%)")
		jsonTo  = flag.String("json", "", "write a machine-readable per-benchmark report (adebench-report/v1) to `file` (\"-\" = stdout) and exit")
		profOut = flag.String("profile-out", "", "profile one untransformed run of every benchmark, merge the shards, write the adeprofile/v1 document to `file`, and exit")

		maxSteps = flag.Uint64("max-steps", 0, "per-execution step budget; exhausting it fails with a structured error (0 = unlimited)")
		maxMem   = flag.Int64("max-mem", 0, "per-execution modeled live-memory budget in bytes (0 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "per-execution wall-clock deadline (0 = none)")
	)
	flag.Parse()
	bud := experiments.Budget{MaxSteps: *maxSteps, MaxBytes: *maxMem, Timeout: *timeout}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *profOut != "" {
		p, err := experiments.CollectSuiteProfile(sc)
		if err == nil {
			err = p.WriteFile(*profOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote merged profile for %d benchmarks to %s (fingerprint %s)\n",
			len(p.Programs), *profOut, p.Fingerprint())
		return
	}
	if *jsonTo != "" {
		rep, err := experiments.CollectBenchReport(sc, bud)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := io.Writer(os.Stdout)
		if *jsonTo != "-" {
			f, err := os.Create(*jsonTo)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := experiments.WriteBenchReport(rep, w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *counts != "" {
		c, err := experiments.CollectCounts(sc, bud)
		if err == nil {
			err = experiments.WriteCounts(c, *counts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote op-count baseline for %d benchmarks to %s\n", len(c.Counts), *counts)
		return
	}
	if *gate != "" {
		if err := experiments.Gate(sc, *gate, *tol, bud, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{Scale: sc, Trials: *trials, Out: os.Stdout, Budget: bud}

	type job struct {
		name string
		run  func(experiments.Config) error
	}
	jobs := map[string]job{
		"fig4":   {"Figure 4", experiments.Fig4},
		"fig5":   {"Figure 5", experiments.Fig5},
		"fig6":   {"Figure 6", experiments.Fig6},
		"fig7a":  {"Figure 7a", experiments.Fig7a},
		"fig7b":  {"Figure 7b", experiments.Fig7b},
		"fig7c":  {"Figure 7c", experiments.Fig7c},
		"fig8":   {"Figure 8", experiments.Fig8},
		"fig9":   {"Figure 9", experiments.Fig9},
		"fig10":  {"Figure 10", experiments.Fig10},
		"table2": {"Table II", experiments.Table2},
		"table3": {"Table III", experiments.Table3},
		"rq4":    {"RQ4", experiments.RQ4},
		"pgo":    {"PGO extension", experiments.PGO},
	}
	order := []string{"fig4", "fig5", "fig6", "table2", "table3", "fig7a", "fig7b", "fig7c", "fig8", "rq4", "fig9", "fig10", "pgo"}

	var selected []string
	switch {
	case *all:
		selected = order
	case *fig != "":
		selected = []string{"fig" + *fig}
	case *tab != "":
		selected = []string{"table" + *tab}
	case *rq4:
		selected = []string{"rq4"}
	case *pgo:
		selected = []string{"pgo"}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, name := range selected {
		j, ok := jobs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		runCfg := cfg
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, name+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runCfg.Out = io.MultiWriter(os.Stdout, f)
		}
		err := j.run(runCfg)
		if f != nil {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.name, err)
			os.Exit(1)
		}
	}
}
