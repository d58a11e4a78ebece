package core

import (
	"testing"

	"memoir/internal/interp"
	"memoir/internal/ir"
)

// Differential testing over the random program family of progen.go:
// for every generated program, every ADE configuration must preserve
// the observable output (return value and order-insensitive emit
// checksum). cmd/adediff's -seed mode sweeps the same family, so any
// divergence found here reproduces there and vice versa.

func runFuzzProgram(t testing.TB, p *ir.Program, seed int64) (uint64, uint64) {
	t.Helper()
	opts := interp.DefaultOptions()
	// Generous step/mem budgets: a pathological generated program fails
	// fast with a structured budget error (reported below) instead of
	// stalling a coverage-guided fuzz run.
	opts.MaxSteps = 20_000_000
	opts.MaxBytes = 1 << 30
	ip := interp.New(p, opts)
	c := ip.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
	for _, k := range FuzzInput(seed) {
		c.Append(interp.IntV(k))
	}
	ret, err := ip.Run("main", interp.CollV(c))
	if err != nil {
		t.Fatalf("seed %d: run: %v\n%s", seed, err, ir.Print(p))
	}
	return ret.I, ip.Stats.EmitSum
}

// diffOneSeed checks one seed across every configuration in the
// options matrix; shared by the deterministic sweep and the fuzz
// target.
func diffOneSeed(t testing.TB, seed int64) {
	base := GenerateProgram(seed)
	if err := ir.Verify(base); err != nil {
		t.Fatalf("seed %d: generated program invalid: %v\n%s", seed, err, ir.Print(base))
	}
	wantRet, wantSum := runFuzzProgram(t, base, seed)
	for _, no := range OptionsMatrix() {
		prog := GenerateProgram(seed)
		rep, err := Apply(prog, no.Opts)
		if err != nil {
			t.Fatalf("seed %d %s: ADE: %v\n%s", seed, no.Name, err, ir.Print(prog))
		}
		if err := ir.Verify(prog); err != nil {
			t.Fatalf("seed %d %s: verify: %v\nreport:\n%s\n%s", seed, no.Name, err, rep, ir.Print(prog))
		}
		gotRet, gotSum := runFuzzProgram(t, prog, seed)
		if gotRet != wantRet || gotSum != wantSum {
			t.Fatalf("seed %d %s: output mismatch ret %d vs %d sum %d vs %d\nreport:\n%s\nbaseline:\n%s\ntransformed:\n%s",
				seed, no.Name, gotRet, wantRet, gotSum, wantSum, rep, ir.Print(base), ir.Print(prog))
		}
	}
}

// TestDifferentialFuzz generates random programs and checks output
// equivalence across all ADE configurations.
func TestDifferentialFuzz(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 15
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		diffOneSeed(t, seed)
	}
}

// FuzzDifferential is the coverage-guided entry point over the same
// property: CI runs it with a small -fuzztime budget so the corpus
// keeps growing beyond the deterministic seed sweep.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffOneSeed(t, seed)
	})
}
