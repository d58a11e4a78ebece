// Command adelint runs the dataflow-based static diagnostics over
// MEMOIR programs and reports stable-coded findings (ADE001..ADE009)
// with .mir line numbers.
//
// Usage:
//
//	adelint [flags] program.mir...
//	adelint -bench                      # lint post-ADE dumps of the suite
//	adelint -examples examples          # lint .mir sources embedded in Go examples
//	adelint -json -werror testdata/*.mir
//
// Inputs may be combined; the exit status is 1 when any error-grade
// diagnostic was reported (or any diagnostic at all under -werror),
// 2 on usage, I/O or parse failure, and 0 otherwise.
package main

import (
	"flag"
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memoir/internal/analysis"
	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/pipeline"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit one JSON report per input instead of text")
		werror   = flag.Bool("werror", false, "treat warnings as errors (any diagnostic fails the run)")
		ade      = flag.Bool("ade", false, "run Automatic Data Enumeration first and lint the transformed program")
		doBench  = flag.Bool("bench", false, "lint the benchmark suite: every program (and variant) is transformed by ADE, dumped with the IR printer, reparsed and linted")
		examples = flag.String("examples", "", "lint the backtick .mir sources embedded in DIR/*/main.go")
	)
	flag.Parse()
	if flag.NArg() == 0 && !*doBench && *examples == "" {
		fmt.Fprintln(os.Stderr, "usage: adelint [flags] program.mir... | adelint -bench | adelint -examples DIR")
		flag.PrintDefaults()
		os.Exit(2)
	}

	l := &linter{json: *jsonOut, werror: *werror, out: os.Stdout}
	for _, path := range flag.Args() {
		l.lintFile(path, *ade)
	}
	if *doBench {
		l.lintBench()
	}
	if *examples != "" {
		l.lintExamples(*examples)
	}
	os.Exit(l.status)
}

// linter accumulates the worst exit status across all inputs.
type linter struct {
	json   bool
	werror bool
	out    io.Writer
	status int
}

func (l *linter) fail(err error) {
	fmt.Fprintln(os.Stderr, "adelint:", err)
	l.status = 2
}

// report prints the diagnostics for one input and folds their severity
// into the exit status.
func (l *linter) report(label string, ds []Diag) {
	if l.json {
		if err := analysis.FormatJSON(l.out, label, ds); err != nil {
			l.fail(err)
		}
	} else {
		analysis.FormatText(l.out, label, ds)
	}
	if l.status == 2 {
		return
	}
	if analysis.HasErrors(ds) || (l.werror && len(ds) > 0) {
		l.status = max(l.status, 1)
	}
}

// Diag aliases the analysis diagnostic for brevity.
type Diag = analysis.Diagnostic

// parse reads one textual program for linting. Without ADE it
// deliberately skips ir.Verify: the diagnostics are designed to
// explain programs the verifier rejects (ADE001 covers its scope rule
// with a stable code). With ADE the program goes through the compile
// pipeline, which verifies before and after the transformation.
func parse(src string, runADE bool) (*ir.Program, error) {
	if !runADE {
		return parser.Parse(src)
	}
	prog, err := pipeline.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := pipeline.Transform(prog, core.DefaultOptions()); err != nil {
		return nil, err
	}
	return prog, nil
}

// lintSource parses and lints one textual program. lineOff shifts
// reported lines (for sources embedded inside another file).
func (l *linter) lintSource(label, src string, lineOff int, runADE bool) {
	prog, err := parse(src, runADE)
	if err != nil {
		l.fail(fmt.Errorf("%s: %w", label, err))
		return
	}
	l.lint(label, prog, lineOff)
}

// lint reports the diagnostics of one parsed program.
func (l *linter) lint(label string, prog *ir.Program, lineOff int) {
	ds := analysis.Lint(prog)
	for i := range ds {
		if ds[i].Line > 0 {
			ds[i].Line += lineOff
		}
	}
	l.report(label, ds)
}

func (l *linter) lintFile(path string, runADE bool) {
	src, err := os.ReadFile(path)
	if err != nil {
		l.fail(err)
		return
	}
	l.lintSource(path, string(src), 0, runADE)
}

// lintBench lints the post-ADE IR of the whole benchmark suite the way
// a build would see it: transformed, printed, and reparsed, so the
// diagnostics carry the dump's line numbers.
func (l *linter) lintBench() {
	for _, s := range bench.All() {
		for _, variant := range append([]string{""}, s.Variants...) {
			label := "bench:" + s.Abbr
			if variant != "" {
				label += "(" + variant + ")"
			}
			prog := s.Build(variant)
			if _, err := pipeline.Transform(prog, core.DefaultOptions()); err != nil {
				l.fail(fmt.Errorf("%s: %w", label, err))
				continue
			}
			l.lintSource(label, ir.Print(prog), 0, false)
		}
	}
}

// lintExamples scans DIR/*/main.go for backtick string literals that
// parse as MEMOIR programs and lints each, reporting lines relative to
// the enclosing Go file.
func (l *linter) lintExamples(dir string) {
	mains, err := filepath.Glob(filepath.Join(dir, "*", "main.go"))
	if err != nil {
		l.fail(err)
		return
	}
	if len(mains) == 0 {
		l.fail(fmt.Errorf("%s: no */main.go files found", dir))
		return
	}
	linted := 0
	for _, path := range mains {
		fset := gotoken.NewFileSet()
		f, err := goparser.ParseFile(fset, path, nil, 0)
		if err != nil {
			l.fail(err)
			continue
		}
		goast.Inspect(f, func(n goast.Node) bool {
			lit, ok := n.(*goast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			prog, err := parse(strings.Trim(lit.Value, "`"), false)
			if err != nil {
				return true // not a MEMOIR program; skip
			}
			// Content line k sits at Go line(lit) + k - 1.
			l.lint(path, prog, fset.Position(lit.Pos()).Line-1)
			linted++
			return true
		})
	}
	if linted == 0 {
		l.fail(fmt.Errorf("%s: no embedded MEMOIR programs found", dir))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
