package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
)

// TestReplayMatchesLive: a profile written from a live run and
// replayed with -profile rebuilds that run's telemetry, site by site
// and enumeration by enumeration. Only the per-run fields (mutation
// count, occupancy samples) are not persisted.
func TestReplayMatchesLive(t *testing.T) {
	const path = "../../testdata/coldmap.mir"
	live, err := runFile(path, "0")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pipeline.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(t.TempDir(), "coldmap.prof.json")
	if err := adeprofile.FromTelemetry(ir.ProgramHash(prog), "", live.Telemetry).WriteFile(prof); err != nil {
		t.Fatal(err)
	}
	replay, err := runProfile(path, prof)
	if err != nil {
		t.Fatal(err)
	}

	want, got := live.Telemetry, replay.Telemetry
	if len(want.Sites) == 0 || len(want.Enums) == 0 {
		t.Fatalf("live run recorded %d sites and %d enums; want both non-empty", len(want.Sites), len(want.Enums))
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("replay has %d sites, live run %d", len(got.Sites), len(want.Sites))
	}
	for i, ws := range want.Sites {
		w := *ws
		w.Muts, w.Samples = 0, nil
		if !reflect.DeepEqual(*got.Sites[i], w) {
			t.Errorf("site %d:\nreplay %+v\nlive   %+v", i, *got.Sites[i], w)
		}
	}
	if len(got.Enums) != len(want.Enums) {
		t.Fatalf("replay has %d enums, live run %d", len(got.Enums), len(want.Enums))
	}
	for i, we := range want.Enums {
		if !reflect.DeepEqual(*got.Enums[i], *we) {
			t.Errorf("enum %d:\nreplay %+v\nlive   %+v", i, *got.Enums[i], *we)
		}
	}
}
