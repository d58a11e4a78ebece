package interp

import (
	"testing"

	"memoir/internal/collections"
	"memoir/internal/telemetry"
)

// TestUnionIntoWordPathsAllocateNothing: a BitSet ∪ BitSet and a
// SparseBitSet ∪ SparseBitSet that add nothing allocate nothing, with
// telemetry off and on, and still count their union words.
func TestUnionIntoWordPathsAllocateNothing(t *testing.T) {
	bits := func(keys ...uint32) *RSetBits {
		s := &RSetBits{S: collections.NewBitSet()}
		for _, k := range keys {
			s.S.Insert(k)
		}
		return s
	}
	sparse := func(keys ...uint32) *RSetSparse {
		s := &RSetSparse{S: collections.NewSparseBitSet()}
		for _, k := range keys {
			s.S.Insert(k)
		}
		return s
	}
	cases := []struct {
		name     string
		dst, src RSet
		impl     collections.Impl
	}{
		{"BitSet", bits(1, 64, 700), bits(64, 700), collections.ImplBitSet},
		{"SparseBitSet", sparse(1, 64, 700, 1<<20), sparse(64, 1<<20), collections.ImplSparseBitSet},
	}
	for _, c := range cases {
		for _, rec := range []*telemetry.Recorder{nil, telemetry.NewRecorder()} {
			st := &Stats{}
			allocs := testing.AllocsPerRun(100, func() { UnionInto(st, rec, c.dst, c.src) })
			if allocs != 0 {
				t.Errorf("%s (telemetry %v): %v allocs per union, want 0", c.name, rec != nil, allocs)
			}
			if st.Counts[c.impl][OKUnionWord] == 0 {
				t.Errorf("%s: union words not counted", c.name)
			}
		}
	}
}
