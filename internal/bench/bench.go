// Package bench implements the paper's benchmark suite: 15 of the
// Lonestar 'Analytics' benchmarks plus PARSEC freqmine (Figure 4's
// list), written against the MEMOIR IR the way the paper's C++
// benchmarks are written against MEMOIR collection types — abstract
// collections with sparse keys, before any manual optimization.
//
// Every program is an exported @main taking input collections built by
// the generators in internal/graphgen, emits an order-insensitive
// checksum (so baseline and ADE-transformed runs are comparable even
// though iteration orders differ), and contains a `roi` marker
// separating initialization from the region of interest.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"memoir/internal/adeprofile"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// Scale selects workload sizes.
type Scale int

const (
	// ScaleTest is small enough for unit tests (sub-second full-suite
	// equivalence runs).
	ScaleTest Scale = iota
	// ScaleSmall is the quick-benchmark size.
	ScaleSmall
	// ScaleFull is the headline-benchmark size.
	ScaleFull
)

var scaleNames = [...]string{ScaleTest: "test", ScaleSmall: "small", ScaleFull: "full"}

// String names the scale the way the CLIs spell it.
func (sc Scale) String() string {
	if sc >= 0 && int(sc) < len(scaleNames) {
		return scaleNames[sc]
	}
	return fmt.Sprintf("Scale(%d)", int(sc))
}

// ParseScale is the inverse of String.
func ParseScale(name string) (Scale, error) {
	for sc, n := range scaleNames {
		if n == name {
			return Scale(sc), nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want test, small or full)", name)
}

// Spec describes one benchmark.
type Spec struct {
	Abbr string // the paper's abbreviation, e.g. "BFS"
	Name string
	// Build constructs the program. The variant string selects the
	// RQ4 directive variants on PTA ("" is the default program).
	Build func(variant string) *ir.Program
	// Input constructs @main's arguments. The allocator is the engine
	// that will run the program, so input collections are registered
	// with that engine's memory model.
	Input func(ip Allocator, sc Scale) []interp.Val
	// Variants lists the supported non-default build variants.
	Variants []string
}

var registry = map[string]*Spec{}

// Register adds a benchmark (called from each benchmark's init).
func Register(s *Spec) {
	if _, dup := registry[s.Abbr]; dup {
		panic("duplicate benchmark " + s.Abbr)
	}
	registry[s.Abbr] = s
}

// All returns the suite sorted by abbreviation.
func All() []*Spec {
	var out []*Spec
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Abbr < out[j].Abbr })
	return out
}

// Get returns one benchmark by abbreviation.
func Get(abbr string) *Spec { return registry[abbr] }

// Result is one execution's measurements.
type Result struct {
	Ret       uint64
	EmitSum   uint64
	EmitCount uint64

	WallWhole time.Duration
	WallROI   time.Duration
	WallInit  time.Duration

	Stats    *interp.Stats // whole program
	ROIStats *interp.Stats // kernel only
	Peak     int64
}

// ExecuteOn runs an already-built (and possibly ADE-transformed)
// program on the benchmark's input at the given scale, on the chosen
// execution engine. The measurement surface is engine-independent:
// both engines produce identical deterministic Stats for the same
// program and input. The wall times come from the runtime's own
// timestamps: WallWhole and WallROI end at the same instant, so
// WallInit is exactly the time before the roi marker.
func ExecuteOn(s *Spec, prog *ir.Program, opts interp.Options, sc Scale, eng Engine) (*Result, error) {
	m, err := NewMachine(prog, opts, eng)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Abbr, err)
	}
	args := s.Input(m, sc)
	// Settle the heap so one configuration's garbage doesn't tax the
	// next configuration's timing.
	runtime.GC()
	ret, err := m.Run("main", args...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Abbr, err)
	}
	m.FinalizeMem()
	whole, roi := m.Wall()
	return &Result{
		Ret: ret.I, EmitSum: m.Stats.EmitSum, EmitCount: m.Stats.EmitCount,
		WallWhole: whole, WallROI: roi, WallInit: whole - roi,
		Stats: m.Stats, ROIStats: m.ROIStats(), Peak: m.Stats.PeakBytes,
	}, nil
}

// CollectSiteProfile executes prog (untransformed) on the benchmark's
// input on the VM and returns the run's telemetry as an adeprofile/v1
// document keyed by prog's pre-ADE hash — the durable profile the
// compiler consumes through core.Options.SiteProfile. Profiles are
// engine-identical, so the interpreter would record the same bytes.
func CollectSiteProfile(s *Spec, prog *ir.Program, sc Scale) (*adeprofile.Profile, error) {
	hash := ir.ProgramHash(prog)
	rec := telemetry.NewRecorder()
	opts := interp.DefaultOptions()
	opts.Telemetry = rec
	opts.MemSampleEvery = 1 << 30
	m, err := NewMachine(prog, opts, EngineVM)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Abbr, err)
	}
	if _, err := m.Run("main", s.Input(m, sc)...); err != nil {
		return nil, fmt.Errorf("%s: profiling run: %w", s.Abbr, err)
	}
	return adeprofile.FromTelemetry(hash, s.Abbr, rec.Result()), nil
}

// --- shared input builders ---

// seqOfLabels materializes a Seq<u64> input collection.
func seqOfLabels(ip Allocator, labels []uint64) interp.Val {
	c := ip.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
	for _, l := range labels {
		c.Append(interp.IntV(l))
	}
	return interp.CollV(c)
}

// seqOfIndexed materializes a Seq<u64> of labels selected by index.
func seqOfIndexed(ip Allocator, labels []uint64, idx []int32) interp.Val {
	c := ip.NewColl(ir.SeqOf(ir.TU64)).(*interp.RSeqArr)
	for _, i := range idx {
		c.Append(interp.IntV(labels[i]))
	}
	return interp.CollV(c)
}

// --- shared IR fragments ---

// u64c is shorthand for a u64 constant.
func u64c(x uint64) *ir.Value { return ir.ConstInt(ir.TU64, x) }

// emitAdjSeqBuild emits the standard initialization: an adjacency map
// Map<u64, Seq<u64>> with one (possibly empty) neighbor sequence per
// node.
func emitAdjSeqBuild(b *ir.Builder, nodes, src, dst *ir.Value) *ir.Value {
	adj := b.New(ir.MapOf(ir.TU64, ir.SeqOf(ir.TU64)), "adj")
	l := ir.StartForEach(b, ir.Op(nodes), adj)
	a1 := b.Insert(ir.Op(l.Cur[0]), l.Val, "")
	adjF := l.End(a1)[0]

	l2 := ir.StartForEach(b, ir.Op(src), adjF)
	v := b.Read(ir.Op(dst), l2.Key, "")
	a2 := b.InsertSeq(ir.OpAt(l2.Cur[0], l2.Val), nil, v, "")
	return l2.End(a2)[0]
}

// emitAdjSetBuild emits an adjacency map over sets:
// Map<u64, Set<u64>>.
func emitAdjSetBuild(b *ir.Builder, nodes, src, dst *ir.Value) *ir.Value {
	adj := b.New(ir.MapOf(ir.TU64, ir.SetOf(ir.TU64)), "adjs")
	l := ir.StartForEach(b, ir.Op(nodes), adj)
	a1 := b.Insert(ir.Op(l.Cur[0]), l.Val, "")
	adjF := l.End(a1)[0]

	l2 := ir.StartForEach(b, ir.Op(src), adjF)
	v := b.Read(ir.Op(dst), l2.Key, "")
	a2 := b.Insert(ir.OpAt(l2.Cur[0], l2.Val), v, "")
	return l2.End(a2)[0]
}

// emitDenseHistTail appends a bucketed histogram over vals: every key
// is rem(mix(v), buckets), provably inside [0, buckets), so the
// interval analysis can enumerate the site statically. The fold loop
// re-probes the histogram with its own iterated keys — the ToDec∩ToEnc
// redundancy that makes the site profitable for the runtime
// enumeration whenever the static proof is off (ade-nostatic and the
// interval-defeating variants), keeping the comparison meaningful.
// Returns an order-insensitive checksum.
func emitDenseHistTail(b *ir.Builder, vals *ir.Value, buckets uint64) *ir.Value {
	hist := b.New(ir.MapOf(ir.TU64, ir.TU64), "dhist")
	l := ir.StartForEach(b, ir.Op(vals), hist)
	mix := b.Bin(ir.BinMul, l.Val, u64c(0x9E3779B97F4A7C15), "")
	k := b.Bin(ir.BinRem, mix, u64c(buckets), "")
	h1 := b.Insert(ir.Op(l.Cur[0]), k, "")
	c := b.Read(ir.Op(h1), k, "")
	c1 := b.Bin(ir.BinAdd, c, u64c(1), "")
	h2 := b.Write(ir.Op(h1), k, c1, "")
	histF := l.End(h2)[0]

	f := ir.StartForEach(b, ir.Op(histF), u64c(0))
	cnt := b.Read(ir.Op(histF), f.Key, "")
	km := b.Bin(ir.BinMul, f.Key, u64c(0x9E3779B97F4A7C15), "")
	t := b.Bin(ir.BinXor, km, cnt, "")
	acc := b.Bin(ir.BinXor, f.Cur[0], t, "")
	return f.End(acc)[0]
}

// emitEdgeWeight computes a deterministic pseudo-random weight in
// [1, 16] from an edge's position (independent of node identity, so
// identical under enumeration).
func emitEdgeWeight(b *ir.Builder, edgeIdx *ir.Value) *ir.Value {
	h := b.Bin(ir.BinMul, edgeIdx, u64c(0x9E3779B97F4A7C15), "")
	s := b.Bin(ir.BinShr, h, u64c(60), "")
	return b.Bin(ir.BinAdd, s, u64c(1), "")
}
