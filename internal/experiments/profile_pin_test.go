package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"memoir/internal/bench"
)

// profileSumFile pins the adeprofile/v1 bytes of one untransformed
// ScaleTest run of every suite program: one "<abbr> <sha256>" line
// each, hashing the serialization bench.CollectSiteProfile returns
// (FromTelemetry of the run's telemetry). The bytes feed
// Profile.Fingerprint and through it every profile-guided cache key,
// so a change to the record types, their JSON tags or the merge rule
// that moves them fails here.
const profileSumFile = "testdata/profile.sum"

// TestSuiteProfilePinned: every pinned profile is reproduced byte for
// byte. A deliberate format change fails it; the failure log ends
// with the recomputed sum file.
func TestSuiteProfilePinned(t *testing.T) {
	f, err := os.Open(profileSumFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if abbr, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[abbr] = sum
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	n := 0
	for _, s := range bench.All() {
		p, err := bench.CollectSiteProfile(s, s.Build(""), bench.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := p.Write(h); err != nil {
			t.Fatal(err)
		}
		sum := hex.EncodeToString(h.Sum(nil))
		fmt.Fprintf(&got, "%s %s\n", s.Abbr, sum)
		n++
		if want[s.Abbr] != sum {
			t.Errorf("%s: profile sha256 %s, want %q", s.Abbr, sum, want[s.Abbr])
		}
	}
	if len(want) != n {
		t.Errorf("%s has %d entries, want %d", profileSumFile, len(want), n)
	}
	if t.Failed() {
		t.Logf("recomputed %s:\n%s", profileSumFile, got.String())
	}
}
