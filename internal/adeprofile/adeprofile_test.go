package adeprofile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"memoir/internal/telemetry"
)

// tele builds a small synthetic telemetry result with distinct sites.
func tele(reads, writes uint64, peak int) *telemetry.Telemetry {
	s0 := &telemetry.SiteStats{
		Key:       telemetry.SiteKey{Fn: "main", Alloc: 0},
		Impl:      "BitMap",
		Sparse:    1,
		Dense:     reads + writes,
		Instances: 1,
		PeakLen:   peak,
		KeySeen:   true,
		KeyLo:     2,
		KeyHi:     90,
	}
	s0.Ops[telemetry.OpRead] = reads
	s0.Ops[telemetry.OpWrite] = writes
	s1 := &telemetry.SiteStats{
		Key:       telemetry.SiteKey{Fn: "aux", Alloc: 1, Depth: 1},
		Impl:      "HashSet",
		Instances: 2,
		PeakLen:   3,
	}
	s1.Ops[telemetry.OpInsert] = 7
	return &telemetry.Telemetry{
		Sites: []*telemetry.SiteStats{s0, s1},
		Enums: []*telemetry.EnumStats{
			{Global: "ade0", Enc: reads, Dec: writes, Add: 5, Added: 4, FinalLen: peak},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	p := FromTelemetry("hash-a", "bench", tele(100, 10, 64))
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, q)
	}
	var buf2 bytes.Buffer
	if err := q.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
	}
}

// TestMergeOrderInvariant folds three shards in every order and
// demands byte-identical serialization.
func TestMergeOrderInvariant(t *testing.T) {
	shard := func() []*Profile {
		return []*Profile{
			FromTelemetry("hash-b", "s1", tele(10, 1, 8)),
			FromTelemetry("hash-a", "s2", tele(5, 5, 32)),
			FromTelemetry("hash-b", "s3", tele(0, 100, 4)),
		}
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	var want []byte
	for _, ord := range orders {
		ss := shard()
		m := New()
		for _, i := range ord {
			m.Merge(ss[i])
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("merge order %v produced different bytes", ord)
		}
	}
}

func TestMergeFold(t *testing.T) {
	m := New()
	m.Merge(FromTelemetry("h", "a", tele(10, 2, 8)))
	m.Merge(FromTelemetry("h", "", tele(3, 4, 64)))
	pp := m.For("h")
	if pp == nil {
		t.Fatal("program profile missing")
	}
	if pp.Runs != 2 {
		t.Fatalf("runs = %d, want 2", pp.Runs)
	}
	if pp.Name != "a" {
		t.Fatalf("name = %q, want first non-empty", pp.Name)
	}
	sp := pp.Site(telemetry.SiteKey{Fn: "main", Alloc: 0})
	if sp == nil {
		t.Fatal("site missing")
	}
	if got := sp.Ops[telemetry.OpRead]; got != 13 {
		t.Fatalf("reads = %d, want 13 (counts add)", got)
	}
	if sp.PeakLen != 64 {
		t.Fatalf("peak = %d, want 64 (peaks max)", sp.PeakLen)
	}
	if !sp.KeySeen || sp.KeyLo != 2 || sp.KeyHi != 90 {
		t.Fatalf("key bounds = %v [%d,%d]", sp.KeySeen, sp.KeyLo, sp.KeyHi)
	}
	pe := pp.enum("ade0")
	if pe == nil || pe.Enc != 13 || pe.FinalLen != 64 {
		t.Fatalf("enum fold wrong: %+v", pe)
	}
	if m.For("missing") != nil {
		t.Fatal("For on unknown hash should be nil")
	}
}

// TestPerRunFieldsNotPersisted: FromTelemetry folds the recording
// through Merge, which copies no per-run field (mutation count,
// occupancy samples) and keeps no pointer into the recording.
func TestPerRunFieldsNotPersisted(t *testing.T) {
	rec := tele(10, 2, 8)
	rec.Sites[0].Muts = 12
	rec.Sites[0].Samples = []telemetry.Sample{{Muts: 8, Len: 5}}
	p := FromTelemetry("h", "", rec)
	sp := p.For("h").Site(rec.Sites[0].Key)
	if sp == rec.Sites[0] || p.For("h").Enums[0] == rec.Enums[0] {
		t.Fatal("profile aliases the recording's records")
	}
	if sp.Muts != 0 || sp.Samples != nil {
		t.Fatalf("per-run fields persisted: muts=%d samples=%v", sp.Muts, sp.Samples)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, `"muts"`) || strings.Contains(out, `"samples"`) {
		t.Fatalf("per-run fields serialized:\n%s", out)
	}
}

func TestValidate(t *testing.T) {
	p := FromTelemetry("h", "", tele(1, 1, 1))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New()
	bad.Schema = "bogus/v9"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
	dup := New()
	dup.Programs = []*ProgramProfile{{Hash: "x"}, {Hash: "x"}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate program") {
		t.Fatalf("want duplicate-hash error, got %v", err)
	}
	dk := New()
	dk.Programs = []*ProgramProfile{{
		Hash: "x",
		Sites: []*telemetry.SiteStats{
			{Key: telemetry.SiteKey{Fn: "f"}},
			{Key: telemetry.SiteKey{Fn: "f"}},
		},
	}}
	if err := dk.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate site") {
		t.Fatalf("want duplicate-key error, got %v", err)
	}
	if _, err := Read(strings.NewReader(`{"schema":"nope"}`)); err == nil {
		t.Fatal("Read should reject wrong schema")
	}
}

func TestFingerprint(t *testing.T) {
	a := FromTelemetry("h", "", tele(1, 2, 3))
	b := FromTelemetry("h", "", tele(1, 2, 3))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal profiles should fingerprint equal")
	}
	c := FromTelemetry("h", "", tele(9, 2, 3))
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different profiles should fingerprint differently")
	}
	var nilP *Profile
	if nilP.Fingerprint() != "" {
		t.Fatal("nil profile fingerprint should be empty")
	}
}
