package bench

import (
	"strings"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// adeConfigs are the compiler configurations of the artifact appendix.
var adeConfigs = map[string]core.Options{
	"ade":               core.DefaultOptions(),
	"ade-noredundant":   func() core.Options { o := core.DefaultOptions(); o.RTE = false; return o }(),
	"ade-nopropagation": func() core.Options { o := core.DefaultOptions(); o.Propagation = false; return o }(),
	"ade-nosharing": func() core.Options {
		o := core.DefaultOptions()
		o.Sharing = false
		o.Propagation = false
		return o
	}(),
}

// TestSuiteEquivalence is the soundness property at the heart of the
// reproduction: for every benchmark and every ADE configuration, the
// transformed program's observable output must equal the baseline's.
func TestSuiteEquivalence(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			base := s.Build("")
			if err := ir.Verify(base); err != nil {
				t.Fatalf("baseline verify: %v", err)
			}
			ref, err := ExecuteOn(s, base, interp.DefaultOptions(), ScaleTest, EngineInterp)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			if ref.EmitCount == 0 {
				t.Fatal("benchmark emits no output; equivalence untestable")
			}
			for cfg, opts := range adeConfigs {
				prog := s.Build("")
				rep, err := core.Apply(prog, opts)
				if err != nil {
					t.Fatalf("%s: ADE: %v", cfg, err)
				}
				if err := ir.Verify(prog); err != nil {
					t.Fatalf("%s: verify: %v\nreport:\n%s\n%s", cfg, err, rep, ir.Print(prog))
				}
				got, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
				if err != nil {
					t.Fatalf("%s: run: %v\nreport:\n%s\n%s", cfg, err, rep, ir.Print(prog))
				}
				if got.Ret != ref.Ret || got.EmitSum != ref.EmitSum || got.EmitCount != ref.EmitCount {
					t.Fatalf("%s: output mismatch: ret %d vs %d, emits (%d,%d) vs (%d,%d)\nreport:\n%s",
						cfg, got.Ret, ref.Ret, got.EmitCount, got.EmitSum, ref.EmitCount, ref.EmitSum, rep)
				}
			}
		})
	}
}

// TestSuiteADEEnumerates checks that the full configuration actually
// enumerates something on every benchmark (guards against the pass
// silently bailing out).
func TestSuiteADEEnumerates(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			prog := s.Build("")
			rep, err := core.Apply(prog, core.DefaultOptions())
			if err != nil {
				t.Fatalf("ADE: %v", err)
			}
			if len(rep.Classes) == 0 {
				t.Fatalf("no enumeration classes on %s:\n%s", s.Abbr, rep)
			}
		})
	}
}

// TestVariantsEquivalence checks every directive variant (the RQ4 PTA
// configurations) against the default baseline.
func TestVariantsEquivalence(t *testing.T) {
	for _, s := range All() {
		if len(s.Variants) == 0 {
			continue
		}
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			base := s.Build("")
			ref, err := ExecuteOn(s, base, interp.DefaultOptions(), ScaleTest, EngineInterp)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range s.Variants {
				prog := s.Build(v)
				rep, err := core.Apply(prog, core.DefaultOptions())
				if err != nil {
					t.Fatalf("%s: %v", v, err)
				}
				if err := ir.Verify(prog); err != nil {
					t.Fatalf("%s: verify: %v", v, err)
				}
				got, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
				if err != nil {
					t.Fatalf("%s: %v\n%s", v, err, rep)
				}
				if got.Ret != ref.Ret || got.EmitSum != ref.EmitSum {
					t.Fatalf("%s: output mismatch (%d vs %d)\n%s", v, got.Ret, ref.Ret, rep)
				}
			}
		})
	}
}

// TestPGOEquivalence checks the profile-guided heuristic preserves
// behavior on every benchmark.
func TestPGOEquivalence(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			base := s.Build("")
			ref, err := ExecuteOn(s, base, interp.DefaultOptions(), ScaleTest, EngineInterp)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := CollectSiteProfile(s, s.Build(""), ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.SiteProfile = prof
			prog := s.Build("")
			rep, err := core.Apply(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(rep.Profile, "weighted") {
				t.Fatalf("profile not applied: %q", rep.Profile)
			}
			got, err := ExecuteOn(s, prog, interp.DefaultOptions(), ScaleTest, EngineInterp)
			if err != nil {
				t.Fatal(err)
			}
			if got.Ret != ref.Ret || got.EmitSum != ref.EmitSum {
				t.Fatalf("PGO output mismatch: %d vs %d", got.Ret, ref.Ret)
			}
		})
	}
}

// TestSuiteSwissDefaults runs the RQ5 configuration (Swiss{Set,Map} as
// the unselected default) for both baseline and ADE.
func TestSuiteSwissDefaults(t *testing.T) {
	opts := interp.DefaultOptions()
	opts.DefaultMap = collections.ImplSwissMap
	opts.DefaultSet = collections.ImplSwissSet
	for _, s := range All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			base := s.Build("")
			ref, err := ExecuteOn(s, base, interp.DefaultOptions(), ScaleTest, EngineInterp)
			if err != nil {
				t.Fatal(err)
			}
			swiss := s.Build("")
			got, err := ExecuteOn(s, swiss, opts, ScaleTest, EngineInterp)
			if err != nil {
				t.Fatalf("swiss run: %v", err)
			}
			if got.EmitSum != ref.EmitSum || got.Ret != ref.Ret {
				t.Fatalf("swiss default changed output: %d vs %d", got.Ret, ref.Ret)
			}
		})
	}
}
