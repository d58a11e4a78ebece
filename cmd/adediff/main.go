// Command adediff is the differential-testing and regression harness:
// it proves ADE semantics-preserving by running the benchmark suite
// (and, with -seed, randomly generated IR programs) under a
// configuration matrix and asserting byte-identical canonical outputs
// against the untransformed hash baseline.
//
// Usage:
//
//	adediff -scale test                  # full suite, full matrix
//	adediff -scale test -shard 1/4       # CI smoke slice
//	adediff -bench BFS,PTA -configs ade,ade-sparse
//	adediff -seed 1 -count 50            # random-program mode
//	adediff -enum 2                      # skeletal enumeration, bound 2
//	adediff -enum 3 -shard 2/4           # enumeration shard
//	adediff -enum-id skL:pm0.tms.dm0     # replay one skeleton by ID
//	adediff -faults                      # fault-injection sweep, full registry
//	adediff -fault enum-corrupt:100 -bench BFS
//	adediff -fuel 3 -bench BFS           # cap ADE at 3 rewrites (bisection)
//	adediff -list                        # print the matrix and exit
//	adediff -list-faults                 # print the fault registry and exit
//	adediff -list-enum                   # print the statement alphabet and exit
//
// The fault sweep injects each registered fault — one at a time, with
// a fresh deterministic injector per cell — and requires every fault
// to be rolled back, crash as a structured error, or surface as a
// "degraded" divergence triaged by fuel bisection to the first faulty
// rewrite; a fault that escapes containment fails the run.
//
// The enumeration mode walks every program skeleton up to the -enum
// statement bound (deterministically — the same bound always yields
// the same skeleton sequence) through the full matrix; a divergence
// names the skeleton's stable ID and its automatically reduced
// smallest failing prefix, either of which replays via -enum-id.
// Combining -enum with -fault injects that fault into every cell — the
// self-test proving the sweep can fail and reduce.
//
// The JSON report lands in -out (default difftest-report.json); the
// exit status is 1 when any cell diverged or errored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/difftest"
	"memoir/internal/faults"
)

func main() {
	var (
		scale      = flag.String("scale", "test", "workload scale: test, small, full")
		shard      = flag.String("shard", "", "run shard i/n of the work list (0-based)")
		benchs     = flag.String("bench", "", "comma-separated benchmark abbreviations (default: all)")
		configs    = flag.String("configs", "", "comma-separated config names (default: the full matrix)")
		seed       = flag.Int64("seed", 0, "random-program mode: first generator seed (0 = benchmark mode)")
		count      = flag.Int("count", 25, "random-program mode: number of seeds")
		enum       = flag.Int("enum", 0, "skeletal-enumeration mode: sweep all skeletons up to N statements (0 = off)")
		enumID     = flag.String("enum-id", "", "skeletal-enumeration mode: replay comma-separated skeleton IDs")
		listEnum   = flag.Bool("list-enum", false, "print the enumeration statement alphabet and exit")
		out        = flag.String("out", "difftest-report.json", "JSON report path (empty = don't write)")
		list       = flag.Bool("list", false, "print the configuration matrix and exit")
		check      = flag.Bool("check", false, "enable core's mid-pipeline invariant checking on every ADE column")
		fuel       = flag.Int("fuel", -1, "cap every ADE column at N rewrite units, for bisecting a diverging cell (-1 = unlimited, 0 = none)")
		faultSweep = flag.Bool("faults", false, "fault-injection mode: sweep every registered injection point")
		fault      = flag.String("fault", "", "fault-injection mode: comma-separated injection point names (see -list-faults)")
		listFaults = flag.Bool("list-faults", false, "print the fault-injection registry and exit")
		verbose    = flag.Bool("v", false, "log each cell as it runs")
	)
	flag.Parse()

	if *list {
		for _, c := range difftest.Matrix() {
			kind := "baseline"
			if c.ADE != nil {
				kind = "ade"
			}
			fmt.Printf("%-22s %-8s engine=%s\n", c.Name, kind, c.Engine)
		}
		return
	}
	if *listFaults {
		for _, p := range faults.Registry() {
			fmt.Printf("%-28s kind=%s\n", p.Name, p.Kind)
		}
		// The store I/O points are not part of the engine sweep (-faults
		// iterates the registry above); they are listed here because
		// this flag is the single catalog of injectable fault names.
		for _, p := range faults.IOPoints() {
			fmt.Printf("%-28s kind=%s  (store I/O; adeserved -store-fault / -chaos)\n", p.Name, p.Kind)
		}
		return
	}
	if *listEnum {
		desc := difftest.StatementDescriptions()
		for _, tok := range difftest.StatementTokens() {
			fmt.Printf("%-5s %s\n", tok, desc[tok])
		}
		for b := 1; b <= 3; b++ {
			fmt.Printf("bound %d: %d skeletons\n", b, difftest.SkeletonCount(b))
		}
		return
	}

	sh, err := difftest.ParseShard(*shard)
	if err != nil {
		fatal(err)
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	var rpt *difftest.Report
	switch {
	case *enum != 0 || *enumID != "":
		rpt, err = difftest.RunEnum(difftest.EnumOptions{
			Bound: *enum, IDs: splitList(*enumID), Shard: sh,
			Configs: splitList(*configs), Check: *check,
			Fault: *fault, Verbose: progress,
		})
	case *faultSweep || *fault != "":
		sc, perr := bench.ParseScale(*scale)
		if perr != nil {
			fatal(perr)
		}
		rpt, err = difftest.RunFaults(difftest.FaultOptions{
			Scale: sc, Shard: sh,
			Benchmarks: splitList(*benchs), Configs: splitList(*configs),
			Faults: splitList(*fault), Verbose: progress,
		})
	case *seed != 0:
		rpt, err = difftest.RunRandom(difftest.RandomOptions{
			Seed: *seed, Count: *count, Shard: sh,
			Configs: splitList(*configs), Check: *check, Verbose: progress,
		})
	default:
		sc, perr := bench.ParseScale(*scale)
		if perr != nil {
			fatal(perr)
		}
		rpt, err = difftest.Run(difftest.RunOptions{
			Scale: sc, Shard: sh,
			Benchmarks: splitList(*benchs), Configs: splitList(*configs),
			Check: *check, Fuel: core.FuelFromFlag(*fuel), Verbose: progress,
		})
	}
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := rpt.WriteFile(*out); err != nil {
			fatal(err)
		}
	}
	rpt.Summary(os.Stdout)
	if !rpt.OK() {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adediff:", err)
	os.Exit(2)
}
