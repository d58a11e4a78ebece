package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"memoir/internal/bench"
	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/stats"
)

// Table3 reproduces Table III: per-operation speedup of each
// implementation relative to Hash{Set,Map}. The host rows are real
// measurements of this repository's implementations (the Intel-x64
// analog), each cell the median over Config.Trials passes of the ratio
// within a pass; the AArch64 rows replay the calibrated cost model.
//
// Methodology mirrors the paper's microbenchmarks: point operations
// run over an enumerated-density domain (ids spanning ~2x the
// element count), while iteration runs over a sparsely-occupied
// domain — which is exactly why set iteration is the one operation
// where bitsets lose (the paper's 0.19x) and why RQ4's
// sparsely-shared bitsets hurt.
func Table3(c Config) error {
	n := 1 << 14
	if c.Scale == bench.ScaleTest {
		n = 1 << 10
	}
	header(c.Out, "Table III: per-operation speedup relative to Hash{Set,Map}")

	fmt.Fprintf(c.Out, "host measurements (Intel-x64 analog), median of %d passes:\n", c.trials())
	host := &table{header: []string{"impl", "read", "write", "insert", "remove", "iterate", "union"}}
	passes := make([][]hostRow, c.trials())
	for i := range passes {
		passes[i] = hostPass(n)
	}
	for r, row := range passes[0] {
		cells := []string{row.name}
		for col, x := range row.speedup {
			if math.IsNaN(x) {
				cells = append(cells, "-")
				continue
			}
			xs := make([]float64, len(passes))
			for i, p := range passes {
				xs[i] = p[r].speedup[col]
			}
			cells = append(cells, f2(stats.Median(xs)))
		}
		host.add(cells...)
	}
	host.write(c.Out)

	fmt.Fprintln(c.Out, "\nAArch64 (cost-model replay, sparse-occupancy iteration):")
	arm := &table{header: []string{"impl", "read", "write", "insert", "remove", "iterate", "union"}}
	t3 := interp.Costs(interp.ArchAArch64)
	iterRatio := func(impl collections.Impl, wordsPerElem float64) float64 {
		per := t3[impl][interp.OKIter] + wordsPerElem*t3[impl][interp.OKIterWord]
		return t3[collections.ImplHashSet][interp.OKIter] / per
	}
	ratio := func(impl collections.Impl, base collections.Impl, op interp.OpKind) string {
		return f2(t3[base][op] / t3[impl][op])
	}
	for _, impl := range []collections.Impl{collections.ImplBitSet, collections.ImplSparseBitSet, collections.ImplSwissSet, collections.ImplFlatSet} {
		it := ""
		switch impl {
		case collections.ImplBitSet:
			it = f2(iterRatio(impl, 64)) // sparse-occupancy scan
		default:
			it = ratio(impl, collections.ImplHashSet, interp.OKIter)
		}
		// Hash union re-inserts element-wise; word-structured unions
		// cover 64 elements per word at enumerated density.
		hashUnionPerElem := t3[collections.ImplHashSet][interp.OKIter] + t3[collections.ImplHashSet][interp.OKInsert]
		unionPerElem := t3[impl][interp.OKUnionWord] / 64
		if impl == collections.ImplSwissSet || impl == collections.ImplFlatSet {
			unionPerElem = t3[impl][interp.OKUnionWord]
		}
		arm.add(impl.String(), "-", "-",
			ratio(impl, collections.ImplHashSet, interp.OKInsert),
			ratio(impl, collections.ImplHashSet, interp.OKRemove),
			it,
			f2(hashUnionPerElem/unionPerElem))
	}
	for _, impl := range []collections.Impl{collections.ImplBitMap, collections.ImplSwissMap} {
		arm.add(impl.String(),
			ratio(impl, collections.ImplHashMap, interp.OKRead),
			ratio(impl, collections.ImplHashMap, interp.OKWrite),
			ratio(impl, collections.ImplHashMap, interp.OKInsert),
			ratio(impl, collections.ImplHashMap, interp.OKRemove),
			ratio(impl, collections.ImplHashMap, interp.OKIter), "-")
	}
	arm.write(c.Out)
	return nil
}

// hostRow is one host row of Table III from one measurement pass: the
// implementation's speedup over the hash baseline on read, write,
// insert, remove, iterate and union, NaN where the operation does not
// apply.
type hostRow struct {
	name    string
	speedup [6]float64
}

// hostPass times every host implementation once, each between two
// timings of its hash baseline (baseline, implementation, baseline,
// implementation, ...), and divides by the mean of the two baselines:
// host drift over the pass then moves both sides of a ratio alike
// instead of entering every ratio.
func hostPass(n int) []hostRow {
	na := math.NaN()
	var rows []hostRow
	hs := measureHashSet(n)
	for _, row := range []struct {
		name    string
		measure func(int) setTimes
	}{
		{"BitSet", measureBitSet},
		{"SparseBitSet", measureSparse},
		{"SwissSet", measureSwissSet},
		{"FlatSet", measureFlatSet},
	} {
		m := row.measure(n)
		next := measureHashSet(n)
		base := hs.mean(next)
		hs = next
		rows = append(rows, hostRow{row.name, [6]float64{na, na,
			base.insert / m.insert, base.remove / m.remove,
			base.iterate / m.iterate, base.union / m.union}})
	}
	hm := measureHashMap(n)
	for _, row := range []struct {
		name    string
		measure func(int) mapTimes
	}{
		{"BitMap", measureBitMap},
		{"SwissMap", measureSwissMap},
	} {
		m := row.measure(n)
		next := measureHashMap(n)
		base := hm.mean(next)
		hm = next
		rows = append(rows, hostRow{row.name, [6]float64{base.read / m.read, base.write / m.write,
			base.insert / m.insert, base.remove / m.remove,
			base.iterate / m.iterate, na}})
	}
	return rows
}

type setTimes struct{ insert, remove, iterate, union float64 }

type mapTimes struct{ read, write, insert, remove, iterate float64 }

func (a setTimes) mean(b setTimes) setTimes {
	return setTimes{(a.insert + b.insert) / 2, (a.remove + b.remove) / 2,
		(a.iterate + b.iterate) / 2, (a.union + b.union) / 2}
}

func (a mapTimes) mean(b mapTimes) mapTimes {
	return mapTimes{(a.read + b.read) / 2, (a.write + b.write) / 2,
		(a.insert + b.insert) / 2, (a.remove + b.remove) / 2, (a.iterate + b.iterate) / 2}
}

var sink uint64

// minTimed is how long each timed operation runs in total: one run of
// n operations can take a few microseconds, too short to time
// reproducibly. Runs shorter than batchTime are timed in batches, so
// the clock's own cost spreads over many of them.
const (
	minTimed  = time.Millisecond
	batchTime = 20 * time.Microsecond
)

// perOp returns the mean time of one of n operations. setup builds
// fresh state, untimed, and returns the timed run of the n operations
// on it; runs repeat until they total at least minTimed.
func perOp(n int, setup func() func()) float64 {
	var runs []func()
	var total time.Duration
	reps, batch := 0, 1
	for total < minTimed {
		runs = runs[:0]
		for range batch {
			runs = append(runs, setup())
		}
		start := time.Now()
		for _, run := range runs {
			run()
		}
		d := time.Since(start)
		total += d
		reps += batch
		batch = min(64, max(1, int(batchTime*time.Duration(batch)/max(d, 1))))
	}
	return float64(total.Nanoseconds()) / float64(n*reps)
}

// halves splits keys by position parity, the two operands of a timed
// union.
func halves[K any](keys []K) (even, odd []K) {
	for i, k := range keys {
		if i%2 == 0 {
			even = append(even, k)
		} else {
			odd = append(odd, k)
		}
	}
	return even, odd
}

func sparseKeys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = collections.Mix64(uint64(i) + 12345)
	}
	return out
}

// denseIDs returns n distinct ids within a 2n domain (enumerated
// density) in random order.
func denseIDs(n int) []uint32 {
	r := rand.New(rand.NewSource(9))
	perm := r.Perm(2 * n)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(perm[i])
	}
	return out
}

// sparseIDs returns n distinct ids spread over a 4096n domain (the
// sparse-occupancy iteration case).
func sparseIDs(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i) * 4096
	}
	return out
}

func measureHashSet(n int) setTimes {
	keys := sparseKeys(n)
	even, odd := halves(keys)
	fill := func(s *collections.HashMap[uint64, struct{}], keys []uint64) *collections.HashMap[uint64, struct{}] {
		for _, k := range keys {
			s.Put(k, struct{}{})
		}
		return s
	}
	var t setTimes
	t.insert = perOp(n, func() func() {
		s := &collections.HashMap[uint64, struct{}]{}
		return func() { fill(s, keys) }
	})
	full := fill(&collections.HashMap[uint64, struct{}]{}, keys)
	t.iterate = perOp(n, func() func() {
		return func() { full.Iterate(func(k uint64, _ struct{}) bool { sink += k; return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		s := fill(&collections.HashMap[uint64, struct{}]{}, keys)
		return func() {
			for _, k := range keys[:n/2] {
				s.Remove(k)
			}
		}
	})
	t.union = perOp(n/2, func() func() {
		a, b := fill(&collections.HashMap[uint64, struct{}]{}, even), fill(&collections.HashMap[uint64, struct{}]{}, odd)
		return func() { b.Iterate(func(k uint64, _ struct{}) bool { a.Put(k, struct{}{}); return true }) }
	})
	return t
}

func measureSwissSet(n int) setTimes {
	keys := sparseKeys(n)
	even, odd := halves(keys)
	fill := func(s *collections.SwissSet[uint64], keys []uint64) *collections.SwissSet[uint64] {
		for _, k := range keys {
			s.Insert(k)
		}
		return s
	}
	var t setTimes
	t.insert = perOp(n, func() func() {
		s := collections.NewUint64SwissSet()
		return func() { fill(s, keys) }
	})
	full := fill(collections.NewUint64SwissSet(), keys)
	t.iterate = perOp(n, func() func() {
		return func() { full.Iterate(func(k uint64) bool { sink += k; return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		s := fill(collections.NewUint64SwissSet(), keys)
		return func() {
			for _, k := range keys[:n/2] {
				s.Remove(k)
			}
		}
	})
	t.union = perOp(n/2, func() func() {
		a, b := fill(collections.NewUint64SwissSet(), even), fill(collections.NewUint64SwissSet(), odd)
		return func() { b.Iterate(func(k uint64) bool { a.Insert(k); return true }) }
	})
	return t
}

func measureFlatSet(n int) setTimes {
	keys := sparseKeys(n)
	even, odd := halves(keys)
	fill := func(s *collections.FlatSet[uint64], keys []uint64) *collections.FlatSet[uint64] {
		for _, k := range keys {
			s.Insert(k)
		}
		return s
	}
	var t setTimes
	t.insert = perOp(n, func() func() {
		s := collections.NewUint64FlatSet()
		return func() { fill(s, keys) }
	})
	full := fill(collections.NewUint64FlatSet(), keys)
	t.iterate = perOp(n, func() func() {
		return func() { full.Iterate(func(k uint64) bool { sink += k; return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		s := fill(collections.NewUint64FlatSet(), keys)
		return func() {
			for _, k := range keys[:n/2] {
				s.Remove(k)
			}
		}
	})
	t.union = perOp(n/2, func() func() {
		a, b := fill(collections.NewUint64FlatSet(), even), fill(collections.NewUint64FlatSet(), odd)
		return func() { a.UnionWith(b) }
	})
	return t
}

func measureBitSet(n int) setTimes {
	ids := denseIDs(n)
	even, odd := halves(ids)
	fill := func(s *collections.BitSet, ids []uint32) *collections.BitSet {
		for _, k := range ids {
			s.Insert(k)
		}
		return s
	}
	var t setTimes
	t.insert = perOp(n, func() func() {
		s := collections.NewBitSet()
		return func() { fill(s, ids) }
	})
	// Iteration over a sparse occupancy (the paper's losing case).
	sp := fill(collections.NewBitSet(), sparseIDs(n))
	t.iterate = perOp(n, func() func() {
		return func() { sp.Iterate(func(k uint32) bool { sink += uint64(k); return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		s := fill(collections.NewBitSet(), ids)
		return func() {
			for _, k := range ids[:n/2] {
				s.Remove(k)
			}
		}
	})
	t.union = perOp(n/2, func() func() {
		a, b := fill(collections.NewBitSet(), even), fill(collections.NewBitSet(), odd)
		return func() { a.UnionWith(b) }
	})
	return t
}

func measureSparse(n int) setTimes {
	ids := denseIDs(n)
	even, odd := halves(ids)
	fill := func(s *collections.SparseBitSet, ids []uint32) *collections.SparseBitSet {
		for _, k := range ids {
			s.Insert(k)
		}
		return s
	}
	var t setTimes
	t.insert = perOp(n, func() func() {
		s := collections.NewSparseBitSet()
		return func() { fill(s, ids) }
	})
	sp := fill(collections.NewSparseBitSet(), sparseIDs(n))
	t.iterate = perOp(n, func() func() {
		return func() { sp.Iterate(func(k uint32) bool { sink += uint64(k); return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		s := fill(collections.NewSparseBitSet(), ids)
		return func() {
			for _, k := range ids[:n/2] {
				s.Remove(k)
			}
		}
	})
	t.union = perOp(n/2, func() func() {
		a, b := fill(collections.NewSparseBitSet(), even), fill(collections.NewSparseBitSet(), odd)
		return func() { a.UnionWith(b) }
	})
	return t
}

func measureHashMap(n int) mapTimes {
	keys := sparseKeys(n)
	fill := func(m *collections.HashMap[uint64, uint64]) *collections.HashMap[uint64, uint64] {
		for _, k := range keys {
			m.Put(k, 0)
		}
		return m
	}
	var t mapTimes
	t.insert = perOp(n, func() func() {
		m := &collections.HashMap[uint64, uint64]{}
		return func() { fill(m) }
	})
	full := fill(&collections.HashMap[uint64, uint64]{})
	t.write = perOp(n, func() func() {
		return func() {
			for i, k := range keys {
				full.Put(k, uint64(i))
			}
		}
	})
	t.read = perOp(n, func() func() {
		return func() {
			for _, k := range keys {
				v, _ := full.Get(k)
				sink += v
			}
		}
	})
	t.iterate = perOp(n, func() func() {
		return func() { full.Iterate(func(k, v uint64) bool { sink += v; return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		m := fill(&collections.HashMap[uint64, uint64]{})
		return func() {
			for _, k := range keys[:n/2] {
				m.Remove(k)
			}
		}
	})
	return t
}

func measureSwissMap(n int) mapTimes {
	keys := sparseKeys(n)
	fill := func(m *collections.SwissMap[uint64, uint64]) *collections.SwissMap[uint64, uint64] {
		for _, k := range keys {
			m.Put(k, 0)
		}
		return m
	}
	var t mapTimes
	t.insert = perOp(n, func() func() {
		m := collections.NewUint64SwissMap[uint64]()
		return func() { fill(m) }
	})
	full := fill(collections.NewUint64SwissMap[uint64]())
	t.write = perOp(n, func() func() {
		return func() {
			for i, k := range keys {
				full.Put(k, uint64(i))
			}
		}
	})
	t.read = perOp(n, func() func() {
		return func() {
			for _, k := range keys {
				v, _ := full.Get(k)
				sink += v
			}
		}
	})
	t.iterate = perOp(n, func() func() {
		return func() { full.Iterate(func(k, v uint64) bool { sink += v; return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		m := fill(collections.NewUint64SwissMap[uint64]())
		return func() {
			for _, k := range keys[:n/2] {
				m.Remove(k)
			}
		}
	})
	return t
}

func measureBitMap(n int) mapTimes {
	ids := denseIDs(n)
	fill := func(m *collections.BitMap[uint64]) *collections.BitMap[uint64] {
		for _, k := range ids {
			m.Put(k, 0)
		}
		return m
	}
	var t mapTimes
	t.insert = perOp(n, func() func() {
		m := collections.NewBitMap[uint64]()
		return func() { fill(m) }
	})
	full := fill(collections.NewBitMap[uint64]())
	t.write = perOp(n, func() func() {
		return func() {
			for i, k := range ids {
				full.Put(k, uint64(i))
			}
		}
	})
	t.read = perOp(n, func() func() {
		return func() {
			for _, k := range ids {
				v, _ := full.Get(k)
				sink += v
			}
		}
	})
	t.iterate = perOp(n, func() func() {
		return func() { full.Iterate(func(k uint32, v uint64) bool { sink += v; return true }) }
	})
	t.remove = perOp(n/2, func() func() {
		m := fill(collections.NewBitMap[uint64]())
		return func() {
			for _, k := range ids[:n/2] {
				m.Remove(k)
			}
		}
	})
	return t
}
