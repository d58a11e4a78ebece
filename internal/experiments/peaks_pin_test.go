package experiments

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"memoir/internal/bench"
)

// peaksSumFile pins the modeled peak of every suite program under the
// memoir and ade configurations at ScaleTest: one
// "<program>/<config> <peak bytes>" line each. The peak comes from the
// same memory-sampling run that feeds Figures 5c, 8 and 10, so a
// change to a collection's representation, growth rule or element
// model that moves those columns fails here.
const peaksSumFile = "testdata/peaks.sum"

// TestModeledPeaksPinned: every pinned peak is reproduced exactly. A
// deliberate memory-model change fails it; the failure log ends with
// the recomputed sum file.
func TestModeledPeaksPinned(t *testing.T) {
	f, err := os.Open(peaksSumFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, peak, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = peak
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	n := 0
	for _, s := range bench.All() {
		for _, cfg := range []CompilerConfig{CfgMemoir, CfgADE} {
			prog, err := buildProgram(s, cfg, bench.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := executeBudgeted(s, prog, interpOpts(cfg, true), bench.ScaleTest, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			name, peak := s.Abbr+"/"+cfg.Name, fmt.Sprint(mem.Peak)
			fmt.Fprintf(&got, "%s %s\n", name, peak)
			n++
			if want[name] != peak {
				t.Errorf("%s: modeled peak %s bytes, want %q", name, peak, want[name])
			}
		}
	}
	if len(want) != n {
		t.Errorf("%s has %d entries, want %d", peaksSumFile, len(want), n)
	}
	if t.Failed() {
		t.Logf("recomputed %s:\n%s", peaksSumFile, got.String())
	}
}
