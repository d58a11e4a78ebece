package parser_test

import (
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
)

// TestRoundTripSuite: every benchmark program — and its
// ADE-transformed form — must survive Print -> Parse -> Verify and
// produce identical output when executed.
func TestRoundTripSuite(t *testing.T) {
	for _, s := range bench.All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			for _, transformed := range []bool{false, true} {
				prog := s.Build("")
				if transformed {
					if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
						t.Fatalf("ADE: %v", err)
					}
				}
				ref, err := bench.ExecuteOn(s, prog, interp.DefaultOptions(), bench.ScaleTest, bench.EngineInterp)
				if err != nil {
					t.Fatalf("run original: %v", err)
				}
				text := ir.Print(prog)
				reparsed, err := parser.Parse(text)
				if err != nil {
					t.Fatalf("reparse (transformed=%v): %v\n%s", transformed, err, text)
				}
				if err := ir.Verify(reparsed); err != nil {
					t.Fatalf("verify reparsed: %v", err)
				}
				got, err := bench.ExecuteOn(s, reparsed, interp.DefaultOptions(), bench.ScaleTest, bench.EngineInterp)
				if err != nil {
					t.Fatalf("run reparsed: %v", err)
				}
				if got.EmitSum != ref.EmitSum || got.Ret != ref.Ret {
					t.Fatalf("round-trip changed output (transformed=%v): %d vs %d", transformed, got.Ret, ref.Ret)
				}
				// Second print must be stable.
				if again := ir.Print(reparsed); again != text {
					idx := 0
					for idx < len(again) && idx < len(text) && again[idx] == text[idx] {
						idx++
					}
					lo := idx - 40
					if lo < 0 {
						lo = 0
					}
					t.Fatalf("print not idempotent near %q vs %q",
						clip(text, lo, idx+40), clip(again, lo, idx+40))
				}
			}
		})
	}
}

func clip(s string, lo, hi int) string {
	if hi > len(s) {
		hi = len(s)
	}
	if lo > len(s) {
		lo = len(s)
	}
	return strings.ReplaceAll(s[lo:hi], "\n", "\\n")
}
