package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memoir/internal/analysis"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/remarks"
)

// staticDenseSrc keeps every key of both sites provably inside [0, 64):
// the interval analysis must prove both dense and static-enum must
// replace the runtime enumeration with a direct dense selection.
const staticDenseSrc = `fn u64 @main(%n: u64): exported
  %s := new Set<u64>()
  %m := new Map<u64, u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %m0 := phi(%m, %m1)
    %k := rem(%i, 64)
    %s1 := insert(%s0, %k)
    %m1 := insert(%m0, %k)
    %i1 := add(%i, 1)
    %c := lt(%i1, %n)
  while %c
  %sF := phi(%s0)
  %mF := phi(%m0)
  %acc := new Seq<u64>()
  for [%k2, %v2] in %sF:
    %a0 := phi(%acc, %a1)
    %h := read(%mF, %k2)
    %a1 := insert(%a0, end, %h)
  %aF := phi(%a0)
  %z := size(%aF)
  ret %z
`

func parseProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

func runStaticMain(t *testing.T, p *ir.Program, n uint64) uint64 {
	t.Helper()
	ip := interp.New(p, interp.DefaultOptions())
	ret, err := ip.Run("main", interp.IntV(n))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(p))
	}
	return ret.I
}

// staticNames applies ADE with checks on and returns Report.Static.
func staticNames(t *testing.T, src string, mutate func(*Options)) ([]string, *Report, *ir.Program) {
	t.Helper()
	prog := parseProg(t, src)
	opts := DefaultOptions()
	opts.Check = true
	if mutate != nil {
		mutate(&opts)
	}
	rep, err := Apply(prog, opts)
	if err != nil {
		t.Fatalf("ADE: %v", err)
	}
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("post-ADE verify: %v\n%s", err, ir.Print(prog))
	}
	return rep.Static, rep, prog
}

// TestStaticEnumDenseSites is the positive case: both sites proved
// dense, selected statically, no enumeration machinery anywhere, and
// the transformed program computes the same result.
func TestStaticEnumDenseSites(t *testing.T) {
	want := runStaticMain(t, parseProg(t, staticDenseSrc), 200)

	static, rep, prog := staticNames(t, staticDenseSrc, nil)
	if got, exp := static, []string{"@main:%s", "@main:%m"}; !reflect.DeepEqual(got, exp) {
		t.Fatalf("Static = %v, want %v", got, exp)
	}
	// A statically-dense site must not also join a runtime enumeration.
	for _, c := range rep.Classes {
		for _, s := range c.Sites {
			if s == "@main:%s" || s == "@main:%m" {
				t.Errorf("static site %s also enumerated in class %s", s, c.Global)
			}
		}
	}
	if rep.Rewrites != 2 {
		t.Errorf("Rewrites = %d, want 2 (one per static site)", rep.Rewrites)
	}
	out := ir.Print(prog)
	if !strings.Contains(out, "Set{BitSet}<u64>") || !strings.Contains(out, "Map{BitMap}<u64") {
		t.Errorf("dense selections missing:\n%s", out)
	}
	for _, op := range []string{"@enc(", "@dec(", "@add("} {
		if strings.Contains(out, op) {
			t.Errorf("static enumeration left runtime translation %s:\n%s", op, out)
		}
	}
	if got := runStaticMain(t, prog, 200); got != want {
		t.Errorf("transformed result = %d, want %d", got, want)
	}
}

// TestStaticEnumProofRejections drives every proof obligation: a site
// that fails one falls through to the runtime pipeline untouched.
func TestStaticEnumProofRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			// 2048 exceeds the default dense limit of 1024.
			name: "keys-exceed-limit",
			src:  strings.Replace(staticDenseSrc, "rem(%i, 64)", "rem(%i, 2048)", 1),
			want: nil,
		},
		{
			// The map is probed with the unbounded parameter: the proof
			// cannot bound the lookup key, so only the set stays static.
			name: "unbounded-lookup-key",
			src:  strings.Replace(staticDenseSrc, "read(%mF, %k2)", "read(%mF, %n)", 1),
			want: []string{"@main:%s"},
		},
		{
			name: "pragma-noenumerate",
			src:  strings.Replace(staticDenseSrc, "  %s := new", "  #pragma ade noenumerate\n  %s := new", 1),
			want: []string{"@main:%m"},
		},
		{
			name: "pragma-enumerate",
			src:  strings.Replace(staticDenseSrc, "  %s := new", "  #pragma ade enumerate\n  %s := new", 1),
			want: []string{"@main:%m"},
		},
		{
			name: "pragma-select",
			src:  strings.Replace(staticDenseSrc, "  %s := new", "  #pragma ade select(SparseBitSet)\n  %s := new", 1),
			want: []string{"@main:%m"},
		},
		{
			// Emitting the map is an escape: its representation is
			// observable, so no selection may change. The set is
			// untouched by the escape and stays static.
			name: "escaped-site",
			src:  strings.Replace(staticDenseSrc, "%z := size(%aF)", "emit(%mF)\n  %z := size(%aF)", 1),
			want: []string{"@main:%s"},
		},
		{
			// A union partner forces representation agreement through
			// Algorithm 3; static-enum stays out.
			name: "union-partner",
			src: `fn u64 @main(%n: u64): exported
  %a := new Set<u64>()
  %b := new Set<u64>()
  do:
    %i := phi(0, %i1)
    %a0 := phi(%a, %a1)
    %b0 := phi(%b, %b1)
    %k := rem(%i, 32)
    %j := rem(%i, 16)
    %a1 := insert(%a0, %k)
    %b1 := insert(%b0, %j)
    %i1 := add(%i, 1)
    %c := lt(%i1, %n)
  while %c
  %aF := phi(%a0)
  %bF := phi(%b0)
  %u := union(%aF, %bF)
  %z := size(%u)
  ret %z
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, _, _ := staticNames(t, tc.src, nil)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Static = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestStaticEnumLimit pins the dense bound at its boundary: keys in
// [0, StaticDenseLimit-1] = [0, 1023] are statically enumerated, keys
// in [0, StaticDenseLimit] are not.
func TestStaticEnumLimit(t *testing.T) {
	for _, tc := range []struct {
		mod  uint64
		want int
	}{
		{mod: analysis.StaticDenseLimit, want: 2},
		{mod: analysis.StaticDenseLimit + 1, want: 0},
	} {
		src := strings.Replace(staticDenseSrc, "rem(%i, 64)", fmt.Sprintf("rem(%%i, %d)", tc.mod), 1)
		got, _, _ := staticNames(t, src, nil)
		if len(got) != tc.want {
			t.Errorf("keys in [0,%d]: Static = %v, want %d sites", tc.mod-1, got, tc.want)
		}
	}
}

// TestStaticEnumOff pins the off-switch: without StaticEnum the sites
// go through the ordinary runtime-enumeration pipeline.
func TestStaticEnumOff(t *testing.T) {
	static, _, prog := staticNames(t, staticDenseSrc, func(o *Options) { o.StaticEnum = false })
	if len(static) != 0 {
		t.Fatalf("Static = %v with StaticEnum off", static)
	}
	if out := ir.Print(prog); strings.Contains(out, "Set{BitSet}<u64>()") && !strings.Contains(out, "@enc(") {
		t.Errorf("dense selection without enumeration while StaticEnum off:\n%s", out)
	}
}

// TestStaticEnumFuel: static sites are the first rewrite units, in
// program order, so -fuel 1 keeps exactly the first site.
func TestStaticEnumFuel(t *testing.T) {
	static, rep, _ := staticNames(t, staticDenseSrc, func(o *Options) { o.Fuel = 1 })
	if want := []string{"@main:%s"}; !reflect.DeepEqual(static, want) {
		t.Fatalf("Static = %v, want %v (fuel 1)", static, want)
	}
	if rep.Rewrites != 1 {
		t.Errorf("Rewrites = %d, want 1", rep.Rewrites)
	}
	// Negative fuel permits nothing.
	static, rep, _ = staticNames(t, staticDenseSrc, func(o *Options) { o.Fuel = -1 })
	if len(static) != 0 || rep.Rewrites != 0 {
		t.Errorf("fuel -1: Static = %v, Rewrites = %d, want none", static, rep.Rewrites)
	}
}

// TestStaticEnumRemark checks the structured remark: code, site, and
// the range/limit/impl arguments.
func TestStaticEnumRemark(t *testing.T) {
	prog := parseProg(t, staticDenseSrc)
	em := remarks.NewEmitter()
	opts := DefaultOptions()
	opts.Remarks = em
	if _, err := Apply(prog, opts); err != nil {
		t.Fatalf("ADE: %v", err)
	}
	rs := remarks.ByCode(em.Remarks, remarks.CodeStaticEnum)
	if len(rs) != 2 {
		t.Fatalf("got %d static-enum remarks, want 2:\n%s", len(rs), remarks.Text(em.Remarks))
	}
	args := map[string]string{}
	for _, a := range rs[0].Args {
		args[a.Key] = a.Val
	}
	if args["range"] == "" || args["limit"] != fmt.Sprint(analysis.StaticDenseLimit) || args["impl"] == "" {
		t.Errorf("remark args incomplete: %v", rs[0].Args)
	}
	if rs[0].Pass != "static-enum" {
		t.Errorf("remark pass = %q, want static-enum", rs[0].Pass)
	}
}

// TestStaticEnumSandboxRollback: a fault injected into the static-enum
// sub-pass rolls the whole program back and clears Report.Static.
func TestStaticEnumSandboxRollback(t *testing.T) {
	prog := parseProg(t, staticDenseSrc)
	pristine := ir.Print(parseProg(t, staticDenseSrc))
	opts := DefaultOptions()
	opts.Sandbox = true
	opts.Faults = faults.NewInjector(faults.Point{
		Name: "pass-panic:static-enum", Kind: faults.PassPanic, Pass: "static-enum",
	})
	rep, err := Apply(prog, opts)
	if err != nil {
		t.Fatalf("sandboxed Apply: %v", err)
	}
	if len(rep.Degraded) != 1 || !strings.HasPrefix(rep.Degraded[0], "static-enum:") {
		t.Fatalf("Degraded = %v, want one static-enum entry", rep.Degraded)
	}
	if len(rep.Static) != 0 {
		t.Fatalf("rolled-back report still lists static sites: %v", rep.Static)
	}
	if got := ir.Print(prog); got != pristine {
		t.Errorf("program not rolled back:\n--- got ---\n%s--- want ---\n%s", got, pristine)
	}
}
