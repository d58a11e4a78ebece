// Command adereport joins the two halves of the observability layer:
// the compiler's optimization remarks (which decisions ADE took, and
// where) and the VM's runtime collection telemetry (what actually
// happened at each site). The join key is the allocation-site key
// (function, `new` ordinal, depth) that both sides carry, so each
// enumeration is reported as "created by rule X at line Y, absorbed Z
// translations at runtime".
//
// Usage:
//
//	adereport program.mir                 # one program, scalar -args
//	adereport -args 10 f.mir
//	adereport -bench all -scale test      # whole suite + aggregate
//	adereport -bench PTA -json            # machine-readable join
//	adereport -profile p.json f.mir       # offline replay of a saved profile
//
// With -profile the program is not executed: the saved adeprofile/v1
// document stands in for live telemetry, the program is compiled both
// statically and under the profile, and every allocation site where
// the two compiles disagree gets an auto-generated `#pragma ade`
// suggestion line that bakes the profiled decision into the source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/remarks"
	"memoir/internal/stats"
	"memoir/internal/telemetry"
)

// ReportSchema identifies the -json output format (v2 adds the
// profile verdict and pragma suggestions of -profile mode; the v1
// fields are unchanged).
const ReportSchema = "adereport/v2"

// EnumJoin is one enumeration with both its compile-time origin and
// its runtime behaviour.
type EnumJoin struct {
	Name string `json:"name"`
	// Created are the enum-create remarks whose class global is Name.
	Created []remarks.Remark `json:"created"`
	// Elided counts the compile-time RTE eliminations for this class.
	Elided int `json:"elided"`
	// Selected is the select-impl verdict, if any.
	Selected string `json:"selected,omitempty"`
	// Runtime is the enumeration's translation telemetry (nil when the
	// enumeration was never touched at runtime).
	Runtime *telemetry.EnumStats `json:"runtime,omitempty"`
	// Sites is the runtime telemetry of the enumerated allocation
	// sites, joined via the shared site key.
	Sites []*telemetry.SiteStats `json:"sites,omitempty"`
}

// ProgReport is the joined report for one program run.
type ProgReport struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	// Enums joins remarks to telemetry per enumeration class.
	Enums []EnumJoin `json:"enums"`
	// Remarks is the full remark stream.
	Remarks []remarks.Remark `json:"remarks"`
	// Telemetry is the full runtime recording, including sites that no
	// remark mentions (benchmark inputs, non-enumerated collections).
	// In -profile mode it is reconstituted from the saved aggregates.
	Telemetry *telemetry.Telemetry `json:"telemetry"`
	// Profile is the profile-guided compile's verdict ("weighted: ..."
	// or "stale: ..."); empty outside -profile mode.
	Profile string `json:"profile,omitempty"`
	// Suggestions are the auto-generated pragma lines (-profile mode).
	Suggestions []Suggestion `json:"suggestions,omitempty"`
}

// Doc is the -json document: one entry per program plus the suite
// aggregate in bench mode.
type Doc struct {
	Schema   string       `json:"schema"`
	Programs []ProgReport `json:"programs"`
	// GeoMeanCollOps aggregates suite cost in bench mode (0 when the
	// strict geometric mean is undefined or in single-program mode).
	GeoMeanCollOps float64 `json:"geoMeanCollOps,omitempty"`
}

func main() {
	var (
		benchSel = flag.String("bench", "", "run benchmark(s) instead of a .mir file: a suite abbreviation or \"all\"")
		scale    = flag.String("scale", "test", "workload scale for -bench: test, small, full")
		args     = flag.String("args", "", "comma-separated u64 arguments for @main (single-program mode)")
		jsonOut  = flag.Bool("json", false, "write the joined report as JSON to stdout")
		profIn   = flag.String("profile", "", "offline replay: join this saved adeprofile/v1 `file` to the program's remarks instead of executing, and suggest pragmas where static and profile-guided compiles disagree")
	)
	flag.Parse()
	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}

	doc := Doc{Schema: ReportSchema}
	switch {
	case *profIn != "":
		if *benchSel != "" || flag.NArg() != 1 {
			fatal(fmt.Errorf("-profile needs exactly one program file (and no -bench)"))
		}
		pr, err := runProfile(flag.Arg(0), *profIn)
		if err != nil {
			fatal(err)
		}
		doc.Programs = append(doc.Programs, *pr)
	case *benchSel != "":
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("-bench and a program file are mutually exclusive"))
		}
		specs := bench.All()
		if *benchSel != "all" {
			s := bench.Get(*benchSel)
			if s == nil {
				fatal(fmt.Errorf("unknown benchmark %q", *benchSel))
			}
			specs = []*bench.Spec{s}
		}
		var collOps []float64
		for _, s := range specs {
			pr, ops, err := runBench(s, sc)
			if err != nil {
				fatal(err)
			}
			doc.Programs = append(doc.Programs, *pr)
			collOps = append(collOps, float64(ops))
		}
		if g, err := stats.GeoMeanStrict(collOps); err == nil {
			doc.GeoMeanCollOps = g
		} else {
			fmt.Fprintf(os.Stderr, "adereport: suite aggregate unavailable: %v\n", err)
		}
	case flag.NArg() == 1:
		pr, err := runFile(flag.Arg(0), *args)
		if err != nil {
			fatal(err)
		}
		doc.Programs = append(doc.Programs, *pr)
	default:
		fmt.Fprintln(os.Stderr, "usage: adereport [flags] program.mir | adereport -bench all|ABBR")
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		return
	}
	for i := range doc.Programs {
		writeText(os.Stdout, &doc.Programs[i])
	}
	if doc.GeoMeanCollOps > 0 {
		fmt.Printf("== suite aggregate over %d benchmarks ==\n", len(doc.Programs))
		fmt.Printf("geomean collection ops (ade): %.1f\n", doc.GeoMeanCollOps)
	}
}

// runFile ADE-compiles and executes one .mir program with remarks and
// telemetry on, then joins them.
func runFile(path, argList string) (*ProgReport, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := pipeline.Parse(string(src))
	if err != nil {
		return nil, err
	}
	em := remarks.NewEmitter()
	opts := core.DefaultOptions()
	opts.Remarks = em
	if _, err := pipeline.Transform(prog, opts); err != nil {
		return nil, err
	}
	rec := telemetry.NewRecorder()
	iopts := interp.DefaultOptions()
	iopts.Telemetry = rec
	m, err := bench.NewMachine(prog, iopts, bench.EngineVM)
	if err != nil {
		return nil, err
	}
	var vals []interp.Val
	if argList != "" {
		for _, a := range strings.Split(argList, ",") {
			x, err := strconv.ParseUint(strings.TrimSpace(a), 10, 64)
			if err != nil {
				return nil, err
			}
			vals = append(vals, interp.IntV(x))
		}
	}
	if _, err := m.Run("main", vals...); err != nil {
		return nil, err
	}
	return join(path, em.Remarks, rec.Result()), nil
}

// runProfile is the offline-replay path: no execution. The saved
// profile stands in for live telemetry, and the program is compiled
// twice (static and profile-guided) to generate pragma suggestions
// where the decisions disagree.
func runProfile(path, profPath string) (*ProgReport, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	build := func() (*ir.Program, error) { return pipeline.Parse(string(src)) }
	prog, err := build()
	if err != nil {
		return nil, err
	}
	hash := ir.ProgramHash(prog)
	prof, err := adeprofile.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	sugs, pgoRs, verdict, err := Suggest(build, prof)
	if err != nil {
		return nil, err
	}
	// The saved aggregates stand in for a live run's telemetry; the
	// per-run fields (mutation counts, occupancy samples) stay zero.
	tele := &telemetry.Telemetry{}
	if pp := prof.For(hash); pp != nil {
		tele.Sites, tele.Enums = pp.Sites, pp.Enums
	}
	pr := join(path, pgoRs, tele)
	pr.Engine = "profile(" + profPath + ")"
	pr.Profile = verdict
	pr.Suggestions = sugs
	return pr, nil
}

// runBench ADE-compiles and executes one suite benchmark, returning
// the joined report and the run's collection-op total for the suite
// aggregate.
func runBench(s *bench.Spec, sc bench.Scale) (*ProgReport, uint64, error) {
	prog := s.Build("")
	em := remarks.NewEmitter()
	opts := core.DefaultOptions()
	opts.Remarks = em
	if _, err := pipeline.Transform(prog, opts); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", s.Abbr, err)
	}
	rec := telemetry.NewRecorder()
	iopts := interp.DefaultOptions()
	iopts.Telemetry = rec
	res, err := bench.ExecuteOn(s, prog, iopts, sc, bench.EngineVM)
	if err != nil {
		return nil, 0, err
	}
	return join(s.Abbr, em.Remarks, rec.Result()), res.Stats.CollOps(), nil
}

// join pairs each enumeration class's remarks with the runtime
// telemetry recorded at its sites and for its enumeration global.
func join(name string, rs []remarks.Remark, tele *telemetry.Telemetry) *ProgReport {
	siteByKey := map[string]*telemetry.SiteStats{}
	for _, ss := range tele.Sites {
		siteByKey[ss.Key.String()] = ss
	}
	enumByName := map[string]*telemetry.EnumStats{}
	for _, es := range tele.Enums {
		enumByName[es.Global] = es
	}

	var order []string
	byEnum := map[string]*EnumJoin{}
	get := func(n string) *EnumJoin {
		ej, ok := byEnum[n]
		if !ok {
			ej = &EnumJoin{Name: n, Runtime: enumByName[n]}
			byEnum[n] = ej
			order = append(order, n)
		}
		return ej
	}
	for _, r := range rs {
		switch r.Code {
		case remarks.CodeEnumCreate:
			ej := get(r.ArgVal("enum"))
			ej.Created = append(ej.Created, r)
			if r.Key != nil {
				if ss := siteByKey[r.Key.String()]; ss != nil {
					ej.Sites = append(ej.Sites, ss)
				}
			}
		case remarks.CodeRTEElide:
			get(r.Site).Elided++
		case remarks.CodeSelectImpl:
			if e := r.ArgVal("enum"); e != "" {
				get(e).Selected = r.ArgVal("impl")
			}
		}
	}
	pr := &ProgReport{Name: name, Engine: bench.EngineVM.String(), Remarks: rs, Telemetry: tele}
	for _, n := range order {
		pr.Enums = append(pr.Enums, *byEnum[n])
	}
	return pr
}

func writeText(w io.Writer, pr *ProgReport) {
	fmt.Fprintf(w, "== %s (engine=%s) ==\n", pr.Name, pr.Engine)
	for i := range pr.Enums {
		ej := &pr.Enums[i]
		fmt.Fprintf(w, "enum %s:\n", ej.Name)
		for _, r := range ej.Created {
			fmt.Fprintf(w, "  created by %s at @%s:%d (%s), benefit %s\n",
				r.Pass, r.Fn, r.Line, r.Site, r.ArgVal("benefit"))
		}
		if ej.Selected != "" {
			fmt.Fprintf(w, "  selected implementation: %s\n", ej.Selected)
		}
		if ej.Elided > 0 {
			fmt.Fprintf(w, "  compile time: %d redundant translations elided\n", ej.Elided)
		}
		if rt := ej.Runtime; rt != nil {
			fmt.Fprintf(w, "  runtime: absorbed %d translations (enc=%d dec=%d add=%d, %d grew), final size %d\n",
				rt.Trans(), rt.Enc, rt.Dec, rt.Add, rt.Added, rt.FinalLen)
		} else {
			fmt.Fprintf(w, "  runtime: enumeration never touched\n")
		}
		for _, ss := range ej.Sites {
			total := ss.Sparse + ss.Dense
			densePct := 0.0
			if total > 0 {
				densePct = 100 * float64(ss.Dense) / float64(total)
			}
			fmt.Fprintf(w, "  site %s impl=%s ops=%d dense=%.0f%% peak=%d\n",
				ss.Key, ss.Impl, ss.Total(), densePct, ss.PeakLen)
		}
	}
	if len(pr.Enums) == 0 {
		fmt.Fprintln(w, "no enumerations created")
	}
	if pr.Profile != "" {
		fmt.Fprintf(w, "profile: %s\n", pr.Profile)
	}
	if len(pr.Suggestions) > 0 {
		fmt.Fprintln(w, "pragma suggestions (insert each on the line before the `new`):")
		for _, s := range pr.Suggestions {
			fmt.Fprintf(w, "  @%s:%d %s: %s   (%s)\n", s.Fn, s.Line, s.Value, s.Pragma, s.Reason)
		}
	}
	fmt.Fprintln(w, "telemetry:")
	pr.Telemetry.WriteText(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adereport:", err)
	os.Exit(1)
}
