package memoir

import (
	"os"
	"strings"
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/interp"
	"memoir/internal/telemetry"
)

const histSrc = `
fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %v := rem(%i, 7)
    %sparse := mul(%v, 982451653)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, 500)
  while %more
  %inF := phi(%in0)
  %hist := new Map<u64,u32>()
  for [%i2, %val] in %inF:
    %hist0 := phi(%hist, %hist3)
    %cond := has(%hist0, %val)
    if %cond:
      %freq := read(%hist0, %val)
    else:
      %hist1 := insert(%hist0, %val)
    %freq0 := phi(%freq, 0)
    %hist2 := phi(%hist0, %hist1)
    %freq1 := add(%freq0, 1)
    %hist3 := write(%hist2, %val, %freq1)
  %histF := phi(%hist0)
  for [%k, %f] in %histF:
    %got := read(%histF, %k)
    %g64 := cast<u64>(%got)
    %kv := add(%k, %g64)
    emit(%kv)
  %n := size(%histF)
  ret %n
`

func TestCompileAndRun(t *testing.T) {
	base, err := Compile(histSrc, WithoutADE())
	if err != nil {
		t.Fatal(err)
	}
	ade, err := Compile(histSrc)
	if err != nil {
		t.Fatal(err)
	}
	if ade.Report == "" {
		t.Fatal("ADE produced no report")
	}
	if !strings.Contains(ade.Text(), "Map{BitMap}<idx,u32>") {
		t.Fatalf("ADE did not rewrite the map type:\n%s", ade.Text())
	}
	rb, err := base.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := ade.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Value != 7 || ra.Value != rb.Value {
		t.Fatalf("values: base=%d ade=%d", rb.Value, ra.Value)
	}
	if rb.Checksum != ra.Checksum || rb.Outputs != ra.Outputs {
		t.Fatal("ADE changed observable output")
	}
	if ra.Sparse >= rb.Sparse || ra.Dense <= rb.Dense {
		t.Fatalf("access mix did not shift: sparse %d->%d dense %d->%d",
			rb.Sparse, ra.Sparse, rb.Dense, ra.Dense)
	}
}

func TestCompileOptions(t *testing.T) {
	for _, opt := range []Option{WithoutRTE(), WithoutPropagation(), WithoutSharing(), WithSparseSets(), WithSwissDefaults()} {
		p, err := Compile(histSrc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run("main"); err != nil {
			t.Fatal(err)
		}
	}
}

// runOnInterp executes p on the reference interpreter, recording
// telemetry into rec when it is non-nil, and returns the result in the
// façade's shape (Wall left zero).
func runOnInterp(t *testing.T, p *Program, rec *telemetry.Recorder, args ...uint64) *Result {
	t.Helper()
	opts := interp.DefaultOptions()
	opts.Telemetry = rec
	ip := interp.New(p.IR, opts)
	var vals []interp.Val
	for _, a := range args {
		vals = append(vals, interp.IntV(a))
	}
	ret, err := ip.Run("main", vals...)
	if err != nil {
		t.Fatal(err)
	}
	ip.FinalizeMem()
	st := ip.Stats
	return &Result{Value: ret.I, Checksum: st.EmitSum, Outputs: st.EmitCount,
		Sparse: st.Sparse, Dense: st.Dense, Peak: st.PeakBytes}
}

// TestRunMatchesInterpreter checks the façade's VM against the
// reference interpreter: the same result and deterministic
// measurements exactly, with and without ADE.
func TestRunMatchesInterpreter(t *testing.T) {
	for _, opts := range [][]Option{
		{WithoutADE()},
		nil,
		{WithSparseSets()},
	} {
		pi, err := Compile(histSrc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := Compile(histSrc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ri := runOnInterp(t, pi, nil)
		rv, err := pv.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		rv.Wall = 0
		if *ri != *rv {
			t.Fatalf("engines disagree:\n  interp: %+v\n  vm:     %+v", ri, rv)
		}
	}
}

// TestProfileRoundTrip drives the profile loop through the façade on
// the FIM cold-map shape: a profile collected with verbose off must
// stop the cold %vstats map from being enumerated without changing any
// output, and the façade's profile (collected on the VM) must equal
// the reference interpreter's.
func TestProfileRoundTrip(t *testing.T) {
	b, err := os.ReadFile("testdata/coldmap.mir")
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := parsed.CollectProfile("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	runOnInterp(t, ref, rec, 0)
	if prof.Fingerprint() != adeprofile.FromTelemetry(ref.hash, "", rec.Result()).Fingerprint() {
		t.Fatal("interpreter and VM profiles differ")
	}

	static, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pgo, err := Compile(src, WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pgo.Report, "profile: weighted") {
		t.Fatalf("profile not applied:\n%s", pgo.Report)
	}
	enumerated := func(report string) bool {
		for _, l := range strings.Split(report, "\n") {
			if strings.HasPrefix(l, "  ") && strings.Contains(l, "%vstats") {
				return true
			}
		}
		return false
	}
	if !enumerated(static.Report) {
		t.Fatalf("static build should enumerate %%vstats:\n%s", static.Report)
	}
	if enumerated(pgo.Report) {
		t.Fatalf("profile-guided build still enumerates %%vstats:\n%s", pgo.Report)
	}
	rs, err := static.Run("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := pgo.Run("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Value != rp.Value || rs.Checksum != rp.Checksum || rs.Outputs != rp.Outputs {
		t.Fatalf("outputs differ: static %+v, pgo %+v", rs, rp)
	}
}

func TestCompileRejectsBadProgram(t *testing.T) {
	if _, err := Compile("fn void @f():\n  %x := add(%ghost, 1)\n  ret\n"); err == nil {
		t.Fatal("bad program accepted")
	}
	if _, err := Parse("fn broken"); err == nil {
		t.Fatal("truncated program accepted")
	}
}

func TestSparseSetsOption(t *testing.T) {
	p, err := Compile(histSrc, WithSparseSets())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Compile(histSrc, WithoutADE())
	rb, _ := base.Run("main")
	if r.Checksum != rb.Checksum {
		t.Fatal("sparse-set configuration changed output")
	}
}
