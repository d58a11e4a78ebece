package loadtest_test

import (
	"path/filepath"
	"testing"

	"memoir/internal/server/loadtest"
)

// The chaos invariant end-to-end, scaled down for the unit tier
// (`adeserved -chaos` runs the full ≥500-request schedule): injected store
// faults and hard restarts must cost at most recompiles — never a
// wrong answer.
func TestChaosZeroWrongAnswers(t *testing.T) {
	dir := t.TempDir()
	rep, err := loadtest.RunChaos(loadtest.ChaosConfig{
		Requests:    150,
		Concurrency: 4,
		Programs:    6,
		StoreDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wrong != 0 {
		t.Fatalf("%d wrong answers:\n%s", rep.Wrong, loadtest.FormatChaos(rep))
	}
	if rep.OK == 0 || rep.Requests < 150 {
		t.Fatalf("harness did no verified work: %+v", rep)
	}
	if rep.Restarts != 4 {
		t.Fatalf("default schedule is 5 epochs / 4 restarts, got %d", rep.Restarts)
	}
	if rep.RecoveredHits == 0 {
		t.Fatalf("no post-restart request was served from recovered state:\n%s", loadtest.FormatChaos(rep))
	}
	// The fault plan includes torn-write and corrupt-on-read: at least
	// one file must have been quarantined, and quarantine preserves
	// the bytes on disk.
	if rep.Quarantined == 0 {
		t.Fatalf("injected corruption never quarantined anything:\n%s", loadtest.FormatChaos(rep))
	}
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(q) == 0 {
		t.Fatal("quarantine directory empty — corrupt files were deleted, not preserved")
	}
}

func TestChaosRequiresStoreDir(t *testing.T) {
	if _, err := loadtest.RunChaos(loadtest.ChaosConfig{}); err == nil {
		t.Fatal("RunChaos without StoreDir must fail")
	}
}
