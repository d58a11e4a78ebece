// Command adec is the ADE compiler driver: it parses a textual MEMOIR
// program, runs Automatic Data Enumeration, and prints the transformed
// program along with a report of the enumeration decisions.
//
// Usage:
//
//	adec [flags] program.mir
//	adec -no-rte -report program.mir
//
// Flags mirror the artifact's compiler configurations: -no-rte,
// -no-propagation, -no-sharing, -no-static, -sparse. The robustness flags:
// -sandbox contains sub-pass failures by rolling the program back to
// its untransformed state, and -fuel N stops after the first N rewrite
// units, which bisects miscompiles to a single rewrite.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memoir/internal/adeprofile"
	"memoir/internal/analysis"
	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/remarks"
)

func main() {
	var (
		noRTE     = flag.Bool("no-rte", false, "disable redundant translation elimination (§III-C)")
		noProp    = flag.Bool("no-propagation", false, "disable identifier propagation (§III-E)")
		noShare   = flag.Bool("no-sharing", false, "disable enumeration sharing (§III-D); implies -no-propagation")
		noStatic  = flag.Bool("no-static", false, "disable static enumeration: provably-dense sites fall back to the runtime enumeration")
		sparse    = flag.Bool("sparse", false, "select SparseBitSet for enumerated sets")
		report    = flag.Bool("report", false, "print the enumeration report to stderr")
		check     = flag.Bool("check", false, "re-run the IR verifier and ADE invariant checks between every ADE sub-pass, and verify the compiled bytecode")
		sandbox   = flag.Bool("sandbox", false, "contain sub-pass failures: roll the program back to its untransformed state and continue instead of failing")
		fuel      = flag.Int("fuel", -1, "stop after N rewrite units, for bisecting miscompiles (-1 = unlimited, 0 = none)")
		parseOnly = flag.Bool("parse-only", false, "parse and verify only; do not transform")
		dump      = flag.Bool("dump-bytecode", false, "print the register bytecode for the (transformed) program instead of MEMOIR text")
		remarksTo = flag.String("remarks", "", "write optimization remarks to `file` (\"-\" = stderr; .json suffix selects JSON)")
		traceTo   = flag.String("trace", "", "write a Chrome trace_event JSON of the ADE sub-passes to `file`")
		profileIn = flag.String("profile", "", "guide the benefit heuristic and implementation selection by an adeprofile/v1 `file` (memoir-run -profile-out); a stale profile warns and falls back to the static heuristics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: adec [flags] program.mir")
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
	// Suspect pragmas never change semantics but silently steer (or
	// fail to steer) the pass; reject them up front.
	for _, d := range analysis.CheckPragmas(prog) {
		if d.Severity == analysis.SevError {
			fatal(fmt.Errorf("%s: %s", flag.Arg(0), d))
		}
		fmt.Fprintf(os.Stderr, "adec: warning: %s: %s\n", flag.Arg(0), d)
	}
	if *parseOnly {
		fmt.Fprintln(os.Stderr, "ok")
		return
	}
	opts := core.DefaultOptions()
	opts.RTE = !*noRTE
	opts.Propagation = !*noProp && !*noShare
	opts.Sharing = !*noShare
	opts.StaticEnum = !*noStatic
	opts.Check = *check
	opts.Sandbox = *sandbox
	opts.Fuel = core.FuelFromFlag(*fuel)
	if *sparse {
		opts.SetImpl = collections.ImplSparseBitSet
	}
	if *profileIn != "" {
		p, err := adeprofile.ReadFile(*profileIn)
		if err != nil {
			fatal(fmt.Errorf("profile: %w", err))
		}
		opts.SiteProfile = p
	}
	var em *remarks.Emitter
	if *remarksTo != "" || *traceTo != "" {
		em = remarks.NewEmitter()
		opts.Remarks = em
	}
	rep, err := pipeline.Transform(prog, opts)
	if err != nil {
		fatal(err)
	}
	// A sandboxed rollback still compiles successfully, but the user
	// should hear that the output is the unoptimized program.
	for _, d := range rep.Degraded {
		fmt.Fprintf(os.Stderr, "adec: warning: degraded: %s\n", d)
	}
	// Same contract for a stale profile: the compile succeeded, but the
	// static heuristics decided everything.
	if strings.HasPrefix(rep.Profile, "stale") {
		fmt.Fprintf(os.Stderr, "adec: warning: profile %s\n", rep.Profile)
	}
	if *fuel >= 0 {
		fmt.Fprintf(os.Stderr, "adec: fuel: %d rewrite unit(s) performed\n", rep.Rewrites)
	}
	if *remarksTo != "" {
		if err := writeOut(*remarksTo, func(w io.Writer) error {
			if strings.HasSuffix(*remarksTo, ".json") {
				return em.WriteJSON(w)
			}
			return em.WriteText(w)
		}); err != nil {
			fatal(fmt.Errorf("remarks: %w", err))
		}
	}
	if *traceTo != "" {
		if err := writeOut(*traceTo, em.WriteTrace); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if *report {
		fmt.Fprint(os.Stderr, rep)
	}
	if *check || *dump {
		// The bytecode verifier closes the gap the IR verifier cannot
		// see: a miscompile producing structurally bad bytecode dies
		// here with a function+pc position instead of becoming a bad
		// artifact.
		bc, err := pipeline.Compile(prog)
		if err != nil {
			fatal(err)
		}
		if *dump {
			fmt.Print(bytecode.Disasm(bc))
			return
		}
	}
	fmt.Print(ir.Print(prog))
}

// writeOut streams fn to the named file, with "-" meaning stderr (so
// remarks can interleave with -report on a terminal).
func writeOut(name string, fn func(io.Writer) error) error {
	if name == "-" {
		return fn(os.Stderr)
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adec:", err)
	os.Exit(1)
}
