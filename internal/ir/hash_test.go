package ir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"memoir/internal/ir"
	"memoir/internal/parser"
)

const hashProgA = `fn u64 @main(): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 7)
  %n := size(%s1)
  ret %n
`

// Same text, different incidental formatting (extra blank line and a
// comment): must canonicalize to the same hash.
const hashProgAReformatted = `// a comment the canonical form drops
fn u64 @main(): exported
  %s := new Set<u64>()

  %s1 := insert(%s, 7)
  %n := size(%s1)
  ret %n
`

const hashProgB = `fn u64 @main(): exported
  %s := new Set<u64>()
  %s1 := insert(%s, 8)
  %n := size(%s1)
  ret %n
`

func mustParse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestProgramHashStableAcrossReparse(t *testing.T) {
	p1 := mustParse(t, hashProgA)
	p2 := mustParse(t, hashProgA)
	if h1, h2 := ir.ProgramHash(p1), ir.ProgramHash(p2); h1 != h2 {
		t.Fatalf("re-parse changed hash: %s vs %s", h1, h2)
	}
	// Round-trip through the canonical printer and re-parse: still
	// the same hash.
	p3 := mustParse(t, ir.Print(p1))
	if h1, h3 := ir.ProgramHash(p1), ir.ProgramHash(p3); h1 != h3 {
		t.Fatalf("print round-trip changed hash: %s vs %s", h1, h3)
	}
}

func TestProgramHashIgnoresFormatting(t *testing.T) {
	h1 := ir.ProgramHash(mustParse(t, hashProgA))
	h2 := ir.ProgramHash(mustParse(t, hashProgAReformatted))
	if h1 != h2 {
		t.Fatalf("formatting leaked into hash: %s vs %s", h1, h2)
	}
}

func TestProgramHashStableAcrossClone(t *testing.T) {
	p := mustParse(t, hashProgA)
	c := ir.CloneProgram(p)
	if hp, hc := ir.ProgramHash(p), ir.ProgramHash(c); hp != hc {
		t.Fatalf("clone changed hash: %s vs %s", hp, hc)
	}
	// Slot finalization (engine-side derived state) must not affect
	// the hash either.
	for _, name := range p.Order {
		ir.FinalizeSlots(p.Funcs[name])
	}
	if hp := ir.ProgramHash(p); hp != ir.ProgramHash(c) {
		t.Fatalf("FinalizeSlots changed hash")
	}
}

func TestProgramHashDistinguishesPrograms(t *testing.T) {
	hA := ir.ProgramHash(mustParse(t, hashProgA))
	hB := ir.ProgramHash(mustParse(t, hashProgB))
	if hA == hB {
		t.Fatalf("distinct programs collided: %s", hA)
	}
	if len(hA) != 64 {
		t.Fatalf("want 64 hex chars, got %d (%q)", len(hA), hA)
	}
}

// TestProgramHashIsHashOfPrint: ProgramHash streams the rendering into
// the hash, and must stay the SHA-256 of exactly what Print returns.
func TestProgramHashIsHashOfPrint(t *testing.T) {
	for _, src := range []string{hashProgA, hashProgB} {
		p := mustParse(t, src)
		sum := sha256.Sum256([]byte(ir.Print(p)))
		if got, want := ir.ProgramHash(p), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("ProgramHash = %s, SHA-256 of Print = %s", got, want)
		}
	}
}
