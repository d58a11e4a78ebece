// Command memoir-run parses a textual MEMOIR program, optionally
// applies ADE, executes its @main function on the bytecode register
// VM, and reports the result, output checksum and dynamic statistics.
//
// Usage:
//
//	memoir-run program.mir
//	memoir-run -ade -stats program.mir
//	memoir-run -ade -args 10,20 program.mir   # scalar u64 args
//	memoir-run -dump-bytecode program.mir     # print bytecode, don't run
//	memoir-run -max-steps 100000 program.mir  # resource-budgeted run
//	memoir-run -max-mem 1048576 -timeout 5s program.mir
//	memoir-run -telemetry program.mir         # per-site telemetry dump
//	memoir-run -profile-out p.json program.mir # write adeprofile/v1
//
// A run that exhausts a budget (-max-steps, -max-mem, -timeout) stops
// with a structured error, prints the partial statistics accumulated
// up to the interruption point, and exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/telemetry"
)

func main() {
	var (
		ade   = flag.Bool("ade", false, "apply Automatic Data Enumeration before running")
		stats = flag.Bool("stats", false, "print dynamic operation statistics")
		args  = flag.String("args", "", "comma-separated u64 arguments for @main")
		entry = flag.String("entry", "main", "entry function")
		dump  = flag.Bool("dump-bytecode", false, "print the compiled bytecode and exit without running")

		maxSteps = flag.Uint64("max-steps", 0, "stop with a structured error after this many executed steps (0 = unlimited)")
		maxMem   = flag.Int64("max-mem", 0, "stop with a structured error when modeled live bytes exceed this (0 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "stop with a structured error after this wall-clock duration (0 = none)")

		teleDump   = flag.Bool("telemetry", false, "record per-site telemetry and print a human-readable dump after the run")
		profileOut = flag.String("profile-out", "", "record telemetry and write an adeprofile/v1 profile to `file` (feed it back with adec -profile)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: memoir-run [flags] program.mir")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := pipeline.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	// Profiles are keyed by the pre-ADE hash: the site keys survive the
	// transform, so a profile collected on any configuration of this
	// program guides any other.
	progHash := ir.ProgramHash(prog)
	if *ade {
		rep, err := pipeline.Transform(prog, core.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, rep)
	}
	if *dump {
		bc, err := pipeline.Compile(prog)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bytecode.Disasm(bc))
		return
	}
	iopts := interp.DefaultOptions()
	iopts.MaxSteps = *maxSteps
	iopts.MaxBytes = *maxMem
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		iopts.Context = ctx
	}
	var rec *telemetry.Recorder
	if *teleDump || *profileOut != "" {
		rec = telemetry.NewRecorder()
		iopts.Telemetry = rec
	}
	// emitTelemetry shares one emission path between -telemetry and
	// -profile-out; both are valid at a budget interruption too.
	emitTelemetry := func() {
		if rec == nil {
			return
		}
		t := rec.Result()
		if *teleDump {
			if err := t.WriteText(os.Stdout); err != nil {
				fatal(fmt.Errorf("telemetry: %w", err))
			}
		}
		if *profileOut != "" {
			p := adeprofile.FromTelemetry(progHash, flag.Arg(0), t)
			if err := p.WriteFile(*profileOut); err != nil {
				fatal(fmt.Errorf("profile: %w", err))
			}
		}
	}
	m, err := bench.NewMachine(prog, iopts, bench.EngineVM)
	if err != nil {
		fatal(err)
	}
	var vals []interp.Val
	if *args != "" {
		for _, a := range strings.Split(*args, ",") {
			x, err := strconv.ParseUint(strings.TrimSpace(a), 10, 64)
			if err != nil {
				fatal(err)
			}
			vals = append(vals, interp.IntV(x))
		}
	}
	ret, err := m.Run(*entry, vals...)
	elapsed, _ := m.Wall()
	if err != nil {
		var le *interp.LimitError
		if !errors.As(err, &le) {
			fatal(err)
		}
		// A budget interruption is a structured stop, not a crash: the
		// partial statistics up to the interruption point are valid, so
		// report them before exiting nonzero.
		m.FinalizeMem()
		st := m.Stats
		fmt.Printf("interrupted: %v\n", err)
		fmt.Printf("output: count=%d checksum=%d (partial)\n", st.EmitCount, st.EmitSum)
		printStats(*stats, elapsed, st)
		emitTelemetry()
		os.Exit(1)
	}
	m.FinalizeMem()
	st := m.Stats
	fmt.Printf("result: %s\n", ret)
	fmt.Printf("output: count=%d checksum=%d\n", st.EmitCount, st.EmitSum)
	printStats(*stats, elapsed, st)
	emitTelemetry()
}

func printStats(on bool, elapsed time.Duration, st *interp.Stats) {
	if !on {
		return
	}
	fmt.Printf("engine: %s\n", bench.EngineVM)
	fmt.Printf("wall: %v\n", elapsed)
	fmt.Printf("steps: %d  sparse: %d  dense: %d  peak: %d bytes\n",
		st.Steps, st.Sparse, st.Dense, st.PeakBytes)
	fmt.Printf("modeled: intel=%.0fns aarch64=%.0fns\n",
		st.ModeledNanos(interp.ArchIntelX64), st.ModeledNanos(interp.ArchAArch64))
	for op, n := range st.ByOpKind() {
		fmt.Printf("  %-9s %d\n", op, n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memoir-run:", err)
	os.Exit(1)
}
