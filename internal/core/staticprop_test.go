package core_test

import (
	"fmt"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/remarks"
	"memoir/internal/telemetry"
)

// TestStaticEnumIntervalSoundness is the property behind static
// enumeration: whenever the pass fires, the proved key interval must
// contain every key the *untransformed* program actually inserts at
// that allocation site at runtime. Runtime ground truth comes from the
// telemetry key bounds (SiteStats.KeyLo/KeyHi), joined to the remark
// through the shared allocation-site key.
func TestStaticEnumIntervalSoundness(t *testing.T) {
	denseTmpl := `fn u64 @main(%n: u64): exported
  %s := new Set<u64>()
  %m := new Map<u64, u64>()
  do:
    %i := phi(0, %i1)
    %s0 := phi(%s, %s1)
    %m0 := phi(%m, %m1)
    %k := rem(%i, %d)
    %kk := add(%k, %d)
    %s1 := insert(%s0, %k)
    %m1 := insert(%m0, %kk)
    %i1 := add(%i, 1)
    %c := lt(%i1, %n)
  while %c
  %sF := phi(%s0)
  %mF := phi(%m0)
  %acc := new Seq<u64>()
  for [%k2, %v2] in %sF:
    %a0 := phi(%acc, %a1)
    %h := has(%mF, %k2)
    %x := select(%h, 1, 0)
    %a1 := insert(%a0, end, %x)
  %aF := phi(%a0)
  %z := size(%aF)
  ret %z
`
	type subject struct {
		name string
		// build returns a fresh untransformed program.
		build func() *ir.Program
		// run executes the program with the recorder attached.
		run func(t *testing.T, p *ir.Program, rec *telemetry.Recorder)
		// expectStatic: at least one site must be proved on this
		// subject (guards the property against going vacuous).
		expectStatic bool
	}
	parse := func(src string) func() *ir.Program {
		return func() *ir.Program {
			p, err := parser.Parse(src)
			if err != nil {
				panic(err)
			}
			return p
		}
	}
	runParam := func(n uint64) func(*testing.T, *ir.Program, *telemetry.Recorder) {
		return func(t *testing.T, p *ir.Program, rec *telemetry.Recorder) {
			o := interp.DefaultOptions()
			o.Telemetry = rec
			ip := interp.New(p, o)
			if _, err := ip.Run("main", interp.IntV(n)); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
	}
	var subjects []subject
	for _, mod := range []uint64{7, 64, 100, 1000} {
		src := strings.ReplaceAll(denseTmpl, "%d", fmt.Sprint(mod))
		subjects = append(subjects, subject{
			name:  fmt.Sprintf("dense-mod-%d", mod),
			build: parse(src),
			run:   runParam(700),
			// %s keys span [0, mod) and stay provable at every
			// modulus here; %m keys span [mod, 2*mod) and fall out
			// of the default limit once 2*mod > 1024.
			expectStatic: true,
		})
	}
	// Non-dense control: keys provably exceed the default limit, the
	// pass must stay silent.
	subjects = append(subjects, subject{
		name:         "sparse-control",
		build:        parse(strings.ReplaceAll(denseTmpl, "%d", "5000")),
		run:          runParam(700),
		expectStatic: false,
	})
	for _, abbr := range []string{"BFS", "IS", "KC"} {
		s := bench.Get(abbr)
		subjects = append(subjects, subject{
			name:  "bench-" + abbr,
			build: func() *ir.Program { return s.Build("") },
			run: func(t *testing.T, p *ir.Program, rec *telemetry.Recorder) {
				o := interp.DefaultOptions()
				o.Telemetry = rec
				if _, err := bench.ExecuteOn(s, p, o, bench.ScaleTest, bench.EngineInterp); err != nil {
					t.Fatalf("execute: %v", err)
				}
			},
			expectStatic: true,
		})
	}

	fired := 0
	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			transformed := sub.build()
			em := remarks.NewEmitter()
			opts := core.DefaultOptions()
			opts.Check = true
			opts.Remarks = em
			if _, err := core.Apply(transformed, opts); err != nil {
				t.Fatalf("ADE: %v", err)
			}
			rs := remarks.ByCode(em.Remarks, remarks.CodeStaticEnum)
			if sub.expectStatic && len(rs) == 0 {
				t.Fatalf("expected static-enum to fire; remarks:\n%s", remarks.Text(em.Remarks))
			}
			if !sub.expectStatic && len(rs) > 0 {
				t.Fatalf("static-enum fired unexpectedly:\n%s", remarks.Text(em.Remarks))
			}
			if len(rs) == 0 {
				return
			}
			fired += len(rs)

			// Ground truth: the untransformed program's runtime keys.
			rec := telemetry.NewRecorder()
			sub.run(t, sub.build(), rec)
			tele := rec.Result()

			for _, r := range rs {
				if r.Key == nil {
					t.Fatalf("static-enum remark without a site key: %+v", r)
				}
				lo, hi, err := parseInterval(remarkArg(r, "range"))
				if err != nil {
					t.Fatalf("remark range: %v", err)
				}
				for _, ss := range tele.Sites {
					if ss.Key != *r.Key || !ss.KeySeen {
						continue
					}
					if ss.KeyLo < lo || ss.KeyHi > hi {
						t.Errorf("site %s: runtime keys [%d,%d] leave proved interval [%d,%d]",
							ss.Key, ss.KeyLo, ss.KeyHi, lo, hi)
					}
				}
			}
		})
	}
	if fired < 3 {
		t.Fatalf("property exercised only %d static sites; want >= 3", fired)
	}
}

func remarkArg(r remarks.Remark, key string) string {
	for _, a := range r.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// parseInterval reads analysis.Interval's String form: "[lo,hi]" or
// the constant shorthand "[c]".
func parseInterval(s string) (lo, hi uint64, err error) {
	if n, _ := fmt.Sscanf(s, "[%d,%d]", &lo, &hi); n == 2 {
		return lo, hi, nil
	}
	if n, _ := fmt.Sscanf(s, "[%d]", &lo); n == 1 {
		return lo, lo, nil
	}
	return 0, 0, fmt.Errorf("unparseable interval %q", s)
}
