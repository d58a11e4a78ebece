package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/remarks"
	"memoir/internal/telemetry"
)

// parseFile loads and parses a testdata program.
func parseFile(t *testing.T, name string) *ir.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("verify %s: %v", name, err)
	}
	return prog
}

// collectProfile executes the untransformed program once on the
// interpreter with a telemetry recorder and converts the result into
// an adeprofile/v1 document keyed by the program's pre-ADE hash.
func collectProfile(t *testing.T, prog *ir.Program, args ...interp.Val) *adeprofile.Profile {
	t.Helper()
	hash := ir.ProgramHash(prog)
	rec := telemetry.NewRecorder()
	iopts := interp.DefaultOptions()
	iopts.Telemetry = rec
	ip := interp.New(ir.CloneProgram(prog), iopts)
	if _, err := ip.Run("main", args...); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	return adeprofile.FromTelemetry(hash, "test", rec.Result())
}

// runOutputs executes prog on the given engine and returns
// (ret, emitCount, emitSum).
func runOutputs(t *testing.T, prog *ir.Program, eng bench.Engine, args ...interp.Val) (uint64, uint64, uint64) {
	t.Helper()
	m, err := bench.NewMachine(ir.CloneProgram(prog), interp.DefaultOptions(), eng)
	if err != nil {
		t.Fatalf("%s: %v", eng, err)
	}
	ret, err := m.Run("main", args...)
	if err != nil {
		t.Fatalf("%s: run: %v", eng, err)
	}
	m.FinalizeMem()
	st := m.Stats
	return ret.I, st.EmitCount, st.EmitSum
}

// TestProfileGuidedColdMap is the acceptance scenario: on the FIM
// regression shape (testdata/coldmap.mir, hot histogram + cold
// statistics map) a profile collected with verbose off must flip the
// cold site's sharing decision from enumerate to skip, keep the hot
// site enumerated, and leave every observable output bit-identical
// across {static, pgo} × {interp, vm}.
func TestProfileGuidedColdMap(t *testing.T) {
	src := parseFile(t, "coldmap.mir")
	off := interp.IntV(0)
	prof := collectProfile(t, src, off)

	static := ir.CloneProgram(src)
	srep, err := core.Apply(static, core.DefaultOptions())
	if err != nil {
		t.Fatalf("static ADE: %v", err)
	}

	pgo := ir.CloneProgram(src)
	em := remarks.NewEmitter()
	opts := core.DefaultOptions()
	opts.SiteProfile = prof
	opts.Remarks = em
	prep, err := core.Apply(pgo, opts)
	if err != nil {
		t.Fatalf("pgo ADE: %v", err)
	}

	// Static enumerates the cold map; the profile must skip it.
	if !strings.Contains(srep.String(), "%vstats.keys") || len(srep.Classes) < 2 {
		t.Fatalf("static report should enumerate %%vstats:\n%s", srep)
	}
	if !strings.HasPrefix(prep.Profile, "weighted") {
		t.Fatalf("pgo report.Profile = %q, want weighted", prep.Profile)
	}
	skipped := false
	for _, s := range prep.Skipped {
		if strings.Contains(s, "%vstats") && strings.Contains(s, "no benefit") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("pgo run should skip %%vstats for lack of benefit:\n%s", prep)
	}
	hot := false
	for _, c := range prep.Classes {
		for _, s := range c.Sites {
			if strings.Contains(s, "%vstats") {
				t.Fatalf("pgo run still enumerated the cold map:\n%s", prep)
			}
			if strings.Contains(s, "%hist") {
				hot = true
			}
		}
	}
	if !hot {
		t.Fatalf("pgo run should keep the hot histogram enumerated:\n%s", prep)
	}
	if len(remarks.ByCode(em.Remarks, remarks.CodeProfileWeighted)) == 0 {
		t.Fatalf("no profile-weighted remark:\n%s", remarks.Text(em.Remarks))
	}

	// Observable outputs must be bit-identical everywhere.
	type key struct{ ret, n, sum uint64 }
	var want *key
	for _, cfg := range []struct {
		name string
		prog *ir.Program
	}{{"baseline", src}, {"static", static}, {"pgo", pgo}} {
		for _, eng := range bench.Engines() {
			ret, n, sum := runOutputs(t, cfg.prog, eng, off)
			got := key{ret, n, sum}
			if want == nil {
				want = &got
				continue
			}
			if got != *want {
				t.Fatalf("%s/%s output diverged: got %+v want %+v", cfg.name, eng, got, *want)
			}
		}
	}
}

// TestProfileStaleFallback: a profile whose hash does not match the
// program must emit profile-stale, report the fallback, and change
// nothing — the transformed program is byte-identical to the static
// compile.
func TestProfileStaleFallback(t *testing.T) {
	src := parseFile(t, "coldmap.mir")

	static := ir.CloneProgram(src)
	if _, err := core.Apply(static, core.DefaultOptions()); err != nil {
		t.Fatalf("static ADE: %v", err)
	}

	stale := adeprofile.FromTelemetry("deadbeefdeadbeefdeadbeefdeadbeef", "other", &telemetry.Telemetry{})
	pgo := ir.CloneProgram(src)
	em := remarks.NewEmitter()
	opts := core.DefaultOptions()
	opts.SiteProfile = stale
	opts.Remarks = em
	rep, err := core.Apply(pgo, opts)
	if err != nil {
		t.Fatalf("stale-profile ADE should not fail: %v", err)
	}
	if !strings.HasPrefix(rep.Profile, "stale") {
		t.Fatalf("report.Profile = %q, want stale", rep.Profile)
	}
	if len(remarks.ByCode(em.Remarks, remarks.CodeProfileStale)) == 0 {
		t.Fatalf("no profile-stale remark:\n%s", remarks.Text(em.Remarks))
	}
	if got, want := ir.Print(pgo), ir.Print(static); got != want {
		t.Errorf("stale profile changed decisions:\n--- stale ---\n%s--- static ---\n%s", got, want)
	}
}

// TestProfileStaleSiteKeys: a profile with the right hash but site
// keys that do not map onto the program (collected against a
// different revision, then the file edited) also falls back.
func TestProfileStaleSiteKeys(t *testing.T) {
	src := parseFile(t, "coldmap.mir")
	prof := collectProfile(t, src, interp.IntV(0))
	// Corrupt one site key: an allocation ordinal past the function's
	// `new` count cannot be mapped.
	for _, pp := range prof.Programs {
		for _, s := range pp.Sites {
			if s.Key.Alloc >= 0 {
				s.Key.Alloc += 100
				break
			}
		}
	}
	static := ir.CloneProgram(src)
	if _, err := core.Apply(static, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	pgo := ir.CloneProgram(src)
	opts := core.DefaultOptions()
	opts.SiteProfile = prof
	rep, err := core.Apply(pgo, opts)
	if err != nil {
		t.Fatalf("ADE: %v", err)
	}
	if !strings.HasPrefix(rep.Profile, "stale") {
		t.Fatalf("report.Profile = %q, want stale", rep.Profile)
	}
	if got, want := ir.Print(pgo), ir.Print(static); got != want {
		t.Errorf("unmappable profile changed decisions")
	}
}

const sparseSteerSrc = `
fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %h := mul(%i, 2654435761)
    %v := rem(%h, 96)
    %sparse := mul(%v, 982451653)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, 4000)
  while %more
  %inF := phi(%in0)

  %a := new Set<u64>()
  %b := new Set<u64>()
  for [%i2, %val] in %inF:
    %a0 := phi(%a, %a1)
    %a1 := insert(%a0, %val)
  %aF := phi(%a0)
  %b1 := insert(%b, 982451653)
  for [%kb, %vb] in %b1:
    %hb := has(%b1, %kb)
    emit(%kb)
  %u := union(%aF, %b1)
  for [%k, %kv] in %u:
    %ha := has(%u, %k)
    emit(%k)
  %n := size(%u)
  ret %n
`

// TestProfileImplSteering: two sets share one enumeration through a
// union; the profile observes the enumeration universe at ~96
// identifiers while one member peaks at a single element, so the
// profile-guided compile selects SparseBitSet for the near-empty
// member and keeps the dense default for the full one.
func TestProfileImplSteering(t *testing.T) {
	prog, err := parser.Parse(sparseSteerSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(prog); err != nil {
		t.Fatal(err)
	}
	prof := collectProfile(t, prog)

	static := ir.CloneProgram(prog)
	if _, err := core.Apply(static, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ir.Print(static), "SparseBitSet") {
		t.Fatalf("static compile should not select SparseBitSet:\n%s", ir.Print(static))
	}

	pgo := ir.CloneProgram(prog)
	em := remarks.NewEmitter()
	opts := core.DefaultOptions()
	opts.SiteProfile = prof
	opts.Remarks = em
	if _, err := core.Apply(pgo, opts); err != nil {
		t.Fatal(err)
	}
	text := ir.Print(pgo)
	if !strings.Contains(text, "SparseBitSet") {
		t.Fatalf("profile should steer the near-empty set to SparseBitSet:\n%s\nremarks:\n%s",
			text, remarks.Text(em.Remarks))
	}
	if !strings.Contains(text, "{BitSet}") {
		t.Fatalf("the full set should keep the dense default:\n%s", text)
	}
	srcSteered := false
	for _, r := range remarks.ByCode(em.Remarks, remarks.CodeSelectImpl) {
		if r.ArgVal("source") == "profile" {
			srcSteered = true
		}
	}
	if !srcSteered {
		t.Fatalf("no select-impl remark with source=profile:\n%s", remarks.Text(em.Remarks))
	}

	// Selection changes representation, never semantics.
	for _, eng := range bench.Engines() {
		r0, n0, s0 := runOutputs(t, static, eng)
		r1, n1, s1 := runOutputs(t, pgo, eng)
		if r0 != r1 || n0 != n1 || s0 != s1 {
			t.Fatalf("%s: steered outputs diverged: (%d,%d,%d) vs (%d,%d,%d)", eng, r0, n0, s0, r1, n1, s1)
		}
	}
}
