// Package telemetry collects opt-in per-collection-site runtime
// measurements from both execution engines: an operation histogram per
// allocation site, occupancy over time, sparse-vs-dense access ratio,
// translation counts per enumeration, and peak sizes. It is the
// runtime half of the observability layer (the compile-time half is
// internal/remarks); cmd/adereport joins the two per site.
//
// Telemetry is disabled by default: every Recorder method is safe on a
// nil receiver and the engines only call through non-nil recorders, so
// a telemetry-off run executes the exact instruction and operation
// stream of an untouched run (the -tol 0 op-count gate holds by
// construction — the recorder never writes to interp.Stats).
//
// SiteStats and EnumStats are also the records adeprofile/v1 persists:
// a profile is these records folded across runs (internal/adeprofile),
// so there is one record type from the recorder to the file on disk
// and back. JSON omits their zero-valued fields.
//
// The package depends only on internal/collections and internal/ir, so
// the interpreter, the VM, the compiler remarks, and the report tool
// can all share its site keys and canonical operation names.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Operation indices, mirroring interp.OpKind one for one (interp
// asserts the correspondence at compile time). NOps bounds the
// histogram.
const (
	OpRead = iota
	OpWrite
	OpInsert
	OpRemove
	OpHas
	OpSize
	OpClear
	OpIter
	OpIterWord
	OpUnionWord
	OpEnc
	OpDec
	OpAdd
	OpScalar
	NOps
)

// OpNames is the canonical operation-kind name table shared by the
// engines' Stats and the telemetry schema.
var OpNames = [NOps]string{
	"read", "write", "insert", "remove", "has", "size", "clear",
	"iterate", "iterword", "union", "enc", "dec", "add", "scalar",
}

// OpName returns the canonical name of operation index k.
func OpName(k int) string {
	if k < 0 || k >= NOps {
		return fmt.Sprintf("op(%d)", k)
	}
	return OpNames[k]
}

// SiteKey identifies one collection allocation site stably across
// parses, clones, and the ADE transform: the enclosing function's
// name, the allocation's ordinal among the function's `new`
// instructions in ir.WalkInstrs order (ADE inserts translations but
// never allocations, so the ordinal survives the transform), and the
// nesting depth for inner collections materialized by map inserts
// (e.g. the Set<u64> inside a Map<u64,Set<u64>>). The compiler remarks
// carry the same key, which is what lets adereport join "decision
// taken here" with "runtime behaviour observed here". Pseudo-sites
// (collections built outside the program, e.g. benchmark inputs) use
// Alloc = -1.
type SiteKey struct {
	Fn    string `json:"fn"`
	Alloc int    `json:"alloc"`
	Depth int    `json:"depth"`
}

func (k SiteKey) String() string {
	if k.Alloc < 0 {
		return k.Fn
	}
	if k.Depth > 0 {
		return fmt.Sprintf("@%s#%d/%d", k.Fn, k.Alloc, k.Depth)
	}
	return fmt.Sprintf("@%s#%d", k.Fn, k.Alloc)
}

// AllocOrdinals returns each `new` instruction's ordinal among fn's
// allocations, in ir.WalkInstrs order: the Alloc half of a SiteKey.
// The ADE transform inserts translations but never allocations, so the
// ordinal survives it, and the compiler's remarks and both engines'
// recorders agree on it.
func AllocOrdinals(fn *ir.Func) map[*ir.Instr]int {
	out := map[*ir.Instr]int{}
	i := 0
	ir.WalkInstrs(fn, func(in *ir.Instr) {
		if in.Op == ir.OpNew {
			out[in] = i
			i++
		}
	})
	return out
}

// Sample is one occupancy observation: the site's cumulative mutation
// count and the total live elements across the site's instances at
// that moment. Samples are taken when the mutation count crosses a
// power of two, so a run produces at most ~64 samples per site and —
// crucially — both engines sample at identical points, keeping
// telemetry engine-invariant.
type Sample struct {
	Muts uint64 `json:"muts"`
	Len  int    `json:"len"`
}

// SiteStats is the accumulated telemetry of one allocation site. It
// is also the persisted record of an adeprofile/v1 profile, which
// folds every field but Muts and Samples across runs; zero-valued
// fields other than the key and histogram are omitted from JSON, so
// both serializations stay compact.
type SiteStats struct {
	Key  SiteKey `json:"key"`
	Impl string  `json:"impl,omitempty"`
	// Ops is the operation histogram, indexed like OpNames.
	Ops [NOps]uint64 `json:"ops"`
	// Sparse and Dense classify keyed accesses exactly as
	// interp.Stats does (collections.SparseAccess).
	Sparse uint64 `json:"sparse,omitempty"`
	Dense  uint64 `json:"dense,omitempty"`
	// Instances counts how many runtime collections this site
	// allocated (loop-local sites allocate one per iteration).
	Instances int `json:"instances,omitempty"`
	// PeakLen is the largest element count observed at any single
	// mutation point across the site's instances.
	PeakLen int `json:"peakLen,omitempty"`
	// Muts is the cumulative mutation count driving the sampler
	// (per-run: profiles do not persist it).
	Muts uint64 `json:"muts,omitempty"`
	// KeyLo and KeyHi bound every key inserted at the site (raw
	// 64-bit patterns, valid when KeySeen) — the runtime ground truth
	// the static-enum property tests compare proved intervals
	// against. Recorded at insert instructions on both engines, at
	// identical dynamic points.
	KeySeen bool   `json:"keySeen,omitempty"`
	KeyLo   uint64 `json:"keyLo,omitempty"`
	KeyHi   uint64 `json:"keyHi,omitempty"`
	// Samples is the occupancy-over-time series (per-run: profiles
	// do not persist it).
	Samples []Sample `json:"samples,omitempty"`
}

// Total returns the histogram sum.
func (s *SiteStats) Total() uint64 {
	var t uint64
	for _, n := range s.Ops {
		t += n
	}
	return t
}

// OpsByName returns the non-zero histogram entries keyed by canonical
// name, for human-readable rendering.
func (s *SiteStats) OpsByName() map[string]uint64 {
	out := map[string]uint64{}
	for k, n := range s.Ops {
		if n > 0 {
			out[OpName(k)] = n
		}
	}
	return out
}

// EnumStats is the accumulated telemetry of one runtime enumeration:
// the translation traffic it absorbed and its final cardinality.
type EnumStats struct {
	// Global is the enumeration global's name ("ade0", ...);
	// anonymous enumerations are numbered in creation order.
	Global string `json:"global"`
	Enc    uint64 `json:"enc"`
	Dec    uint64 `json:"dec"`
	Add    uint64 `json:"add"`
	// Added counts the @add calls that actually grew the enumeration
	// (Add - Added were already-present re-adds).
	Added uint64 `json:"added"`
	// FinalLen is the enumeration's cardinality at the end of the run
	// (enumerations are append-only, so final = peak).
	FinalLen int `json:"finalLen"`
}

// Trans returns the total translation count.
func (e *EnumStats) Trans() uint64 { return e.Enc + e.Dec + e.Add }

// Telemetry is the deterministic result of one recorded run: sites
// sorted by key, enumerations sorted by global name.
type Telemetry struct {
	Sites []*SiteStats `json:"sites"`
	Enums []*EnumStats `json:"enums"`
}

// Recorder accumulates telemetry during one execution. The zero
// recorder must not be used; create one with NewRecorder. All methods
// are nil-safe so the engines can call them unconditionally cheaply.
type Recorder struct {
	sites     map[SiteKey]*SiteStats
	colls     map[any]*SiteStats // instance -> owning site
	enums     map[any]*EnumStats
	byName    map[string]*EnumStats
	anonEnums int

	// instances retains one representative handle per tracked
	// collection so Result can fold final lengths into the peaks.
	instances []instance
}

type instance struct {
	c  any
	ss *SiteStats
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		sites:  map[SiteKey]*SiteStats{},
		colls:  map[any]*SiteStats{},
		enums:  map[any]*EnumStats{},
		byName: map[string]*EnumStats{},
	}
}

// measurable is the slice of an engine collection telemetry reads.
type measurable interface {
	Len() int
	Impl() collections.Impl
}

func (r *Recorder) site(key SiteKey, impl string) *SiteStats {
	ss, ok := r.sites[key]
	if !ok {
		ss = &SiteStats{Key: key, Impl: impl}
		r.sites[key] = ss
	}
	return ss
}

// TrackColl attributes collection instance c to the allocation site
// key. Called by both engines at their `new` opcodes.
func (r *Recorder) TrackColl(c any, key SiteKey) {
	if r == nil || c == nil {
		return
	}
	impl := ""
	if m, ok := c.(measurable); ok {
		impl = m.Impl().String()
	}
	ss := r.site(key, impl)
	ss.Instances++
	r.colls[c] = ss
	r.instances = append(r.instances, instance{c: c, ss: ss})
}

// TrackInner attributes an inner collection (materialized as a map
// element's zero value) to its outer collection's site, one nesting
// level deeper. When the outer collection is itself untracked the
// inner one stays untracked and falls into the lazy input bucket.
func (r *Recorder) TrackInner(inner, outer any) {
	if r == nil || inner == nil {
		return
	}
	if _, isColl := inner.(measurable); !isColl {
		return
	}
	os, ok := r.colls[outer]
	if !ok {
		return
	}
	key := os.Key
	key.Depth++
	impl := ""
	if m, ok := inner.(measurable); ok {
		impl = m.Impl().String()
	}
	ss := r.site(key, impl)
	ss.Instances++
	r.colls[inner] = ss
	r.instances = append(r.instances, instance{c: inner, ss: ss})
}

// TrackEnum attributes a runtime enumeration to its global name; pass
// "" for anonymous enumerations (numbered in creation order, which is
// identical across engines for the same program and input).
func (r *Recorder) TrackEnum(e any, global string) {
	if r == nil || e == nil {
		return
	}
	if _, dup := r.enums[e]; dup {
		return
	}
	if global == "" {
		global = fmt.Sprintf("(enum %d)", r.anonEnums)
		r.anonEnums++
	}
	es, ok := r.byName[global]
	if !ok {
		es = &EnumStats{Global: global}
		r.byName[global] = es
	}
	r.enums[e] = es
}

// lookup resolves an instance to its site, lazily bucketing untracked
// collections (benchmark inputs built outside the program) into a
// per-implementation input pseudo-site.
func (r *Recorder) lookup(c any) *SiteStats {
	ss, ok := r.colls[c]
	if ok {
		return ss
	}
	impl := ""
	if m, ok := c.(measurable); ok {
		impl = m.Impl().String()
	}
	key := SiteKey{Fn: "(input " + impl + ")", Alloc: -1}
	ss = r.site(key, impl)
	ss.Instances++
	r.colls[c] = ss
	r.instances = append(r.instances, instance{c: c, ss: ss})
	return ss
}

// KeyObs records one key inserted into collection instance c,
// widening the site's observed key bounds.
func (r *Recorder) KeyObs(c any, key uint64) {
	if r == nil {
		return
	}
	ss := r.lookup(c)
	if !ss.KeySeen || key < ss.KeyLo {
		ss.KeyLo = key
	}
	if !ss.KeySeen || key > ss.KeyHi {
		ss.KeyHi = key
	}
	ss.KeySeen = true
}

// mutating reports whether operation k changes a collection's
// contents (the sampler advances only on these).
func mutating(k int) bool {
	switch k {
	case OpWrite, OpInsert, OpRemove, OpClear, OpUnionWord:
		return true
	}
	return false
}

// CollOp records n operations of kind k on collection instance c.
// Mutations advance the occupancy sampler: when the site's cumulative
// mutation count crosses a power of two, the instance's current
// length is sampled.
func (r *Recorder) CollOp(c any, k int, n uint64) {
	if r == nil || n == 0 {
		return
	}
	ss := r.lookup(c)
	ss.Ops[k] += n
	switch k {
	case OpRead, OpWrite, OpInsert, OpRemove, OpHas:
		if collections.SparseAccess(implOf(c)) {
			ss.Sparse += n
		} else {
			ss.Dense += n
		}
	}
	if mutating(k) {
		before := ss.Muts
		ss.Muts += n
		ln := 0
		if m, ok := c.(measurable); ok {
			ln = m.Len()
		}
		if ln > ss.PeakLen {
			ss.PeakLen = ln
		}
		if bits.Len64(ss.Muts) > bits.Len64(before) {
			ss.Samples = append(ss.Samples, Sample{Muts: ss.Muts, Len: ln})
		}
	}
}

func implOf(c any) collections.Impl {
	if m, ok := c.(measurable); ok {
		return m.Impl()
	}
	return collections.ImplNone
}

// IterCounter returns a direct pointer to the site's per-element
// iteration counter, so the engines' inlined iteration loops pay one
// pointer increment per element instead of a map lookup. Returns nil
// on a nil recorder.
func (r *Recorder) IterCounter(c any) *uint64 {
	if r == nil {
		return nil
	}
	ss := r.lookup(c)
	return &ss.Ops[OpIter]
}

// EnumOp records one translation (OpEnc, OpDec or OpAdd) on
// enumeration instance e; grew reports that an @add actually extended
// the enumeration.
func (r *Recorder) EnumOp(e any, k int, grew bool) {
	if r == nil {
		return
	}
	es, ok := r.enums[e]
	if !ok {
		// Enumeration created before the recorder saw it (not
		// reachable from the engines, but keep the method total).
		r.TrackEnum(e, "")
		es = r.enums[e]
	}
	switch k {
	case OpEnc:
		es.Enc++
	case OpDec:
		es.Dec++
	case OpAdd:
		es.Add++
		if grew {
			es.Added++
		}
	}
	if m, ok := e.(interface{ Len() int }); ok {
		es.FinalLen = m.Len()
	}
}

// Result finalizes and returns the run's telemetry in deterministic
// order. Final instance lengths are folded into each site's peak (a
// collection that only ever grew between mutation points is still
// reported at its true final size).
func (r *Recorder) Result() *Telemetry {
	if r == nil {
		return &Telemetry{}
	}
	for _, in := range r.instances {
		if m, ok := in.c.(measurable); ok {
			if ln := m.Len(); ln > in.ss.PeakLen {
				in.ss.PeakLen = ln
			}
		}
	}
	t := &Telemetry{}
	for _, ss := range r.sites {
		t.Sites = append(t.Sites, ss)
	}
	sort.Slice(t.Sites, func(i, j int) bool {
		a, b := t.Sites[i].Key, t.Sites[j].Key
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		return a.Depth < b.Depth
	})
	for _, es := range r.byName {
		t.Enums = append(t.Enums, es)
	}
	sort.Slice(t.Enums, func(i, j int) bool { return t.Enums[i].Global < t.Enums[j].Global })
	return t
}

// WriteText writes a human-readable site and enumeration summary.
func (t *Telemetry) WriteText(w io.Writer) error {
	for _, ss := range t.Sites {
		denseRatio := 0.0
		if ss.Sparse+ss.Dense > 0 {
			denseRatio = float64(ss.Dense) / float64(ss.Sparse+ss.Dense)
		}
		if _, err := fmt.Fprintf(w, "site %s impl=%s instances=%d ops=%d dense=%.0f%% peak=%d\n",
			ss.Key, ss.Impl, ss.Instances, ss.Total(), 100*denseRatio, ss.PeakLen); err != nil {
			return err
		}
		var ks []int
		for k, n := range ss.Ops {
			if n > 0 {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			if _, err := fmt.Fprintf(w, "  %-8s %d\n", OpName(k), ss.Ops[k]); err != nil {
				return err
			}
		}
	}
	for _, es := range t.Enums {
		if _, err := fmt.Fprintf(w, "enum %s: enc=%d dec=%d add=%d added=%d size=%d\n",
			es.Global, es.Enc, es.Dec, es.Add, es.Added, es.FinalLen); err != nil {
			return err
		}
	}
	return nil
}
