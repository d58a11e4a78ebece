package main

import (
	"fmt"
	"math/rand"
	"time"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// The two builds of every suite program: untransformed (the paper's
// MEMOIR baseline) and under default ADE options.
const (
	buildMemoir = iota
	buildADE
)

var buildNames = [2]string{"memoir", "ade"}

// outcome is what a program run must reproduce: the oracle's return
// value, emit checksum and emit count.
type outcome struct{ Ret, Sum, Count uint64 }

func outcomeOf(r *bench.Result) outcome { return outcome{r.Ret, r.EmitSum, r.EmitCount} }

// runCounts are the deterministic counts of one run; the traced run
// must reproduce them exactly.
type runCounts struct{ Steps, Sparse, Dense, Translations uint64 }

func countsOf(st *interp.Stats) runCounts {
	e := st.Counts[interp.ImplEnum]
	return runCounts{
		Steps: st.Steps, Sparse: st.Sparse, Dense: st.Dense,
		Translations: e[interp.OKEnc] + e[interp.OKDec] + e[interp.OKAdd],
	}
}

// vmProgram is one suite program ready to run on the VM.
type vmProgram struct {
	spec   *bench.Spec
	builds [2]*ir.Program
	oracle outcome
	// peak is the ADE build's modeled peak live bytes, from one
	// memory-sampling run in setup.
	peak int64
}

// timingOpts are the engine options of timing runs: memory sampling
// off, as in the experiments package.
func timingOpts() interp.Options {
	o := interp.DefaultOptions()
	o.MemSampleEvery = 1 << 30
	return o
}

// peakOpts are the options of the untimed memory-sampling run.
func peakOpts() interp.Options {
	o := interp.DefaultOptions()
	o.MemSampleEvery = 256
	return o
}

// setupVM builds every suite program twice, computes its oracle on the
// interpreter from a third, untransformed build, and measures the ADE
// build's modeled peak.
func setupVM() ([]*vmProgram, error) {
	var out []*vmProgram
	for _, s := range bench.All() {
		p := &vmProgram{spec: s}
		p.builds[buildMemoir] = s.Build("")
		ade := s.Build("")
		if _, err := core.Apply(ade, core.DefaultOptions()); err != nil {
			return nil, fmt.Errorf("%s: ade: %w", s.Abbr, err)
		}
		if err := ir.Verify(ade); err != nil {
			return nil, fmt.Errorf("%s: verify after ade: %w", s.Abbr, err)
		}
		p.builds[buildADE] = ade
		ref, err := bench.ExecuteOn(s, s.Build(""), timingOpts(), bench.ScaleSmall, bench.EngineInterp)
		if err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", s.Abbr, err)
		}
		p.oracle = outcomeOf(ref)
		mem, err := bench.ExecuteOn(s, ade, peakOpts(), bench.ScaleSmall, bench.EngineVM)
		if err != nil {
			return nil, fmt.Errorf("%s: peak run: %w", s.Abbr, err)
		}
		if outcomeOf(mem) != p.oracle {
			return nil, fmt.Errorf("%s: peak run output differs from the oracle", s.Abbr)
		}
		p.peak = mem.Peak
		out = append(out, p)
	}
	return out, nil
}

// vmSamples are one (program, build) pair's timings in ms.
type vmSamples struct {
	whole, roi, init []float64
	last             *bench.Result
}

// vmResult is one pass of the suite-vm section.
type vmResult struct {
	progs     []*vmProgram
	samples   map[string]*[2]vmSamples
	counts    map[string][2]runCounts
	rounds    int
	attempted int
	failed    int
	errs      []string
}

func newVMResult(progs []*vmProgram) *vmResult {
	res := &vmResult{progs: progs, samples: map[string]*[2]vmSamples{}, counts: map[string][2]runCounts{}}
	for _, p := range progs {
		res.samples[p.spec.Abbr] = &[2]vmSamples{}
	}
	return res
}

// round runs every program once per build: programs in seed-shuffled
// order, the two builds of one program back to back, the first of them
// chosen by the seed.
func (res *vmResult) round(rng *rand.Rand, tr *tracer) {
	for _, i := range rng.Perm(len(res.progs)) {
		p := res.progs[i]
		first := rng.Intn(2)
		for _, b := range [2]int{first, 1 - first} {
			res.run(p, b, tr)
		}
	}
	res.rounds++
}

// checkPeaks repeats every memory-sampling run, traced, and compares
// the modeled peak with setup's.
func (res *vmResult) checkPeaks(tr *tracer) {
	for _, p := range res.progs {
		var mem *bench.Result
		err := tr.do(0, "bench.ExecuteOn.mem", p.spec.Abbr, func() (err error) {
			mem, err = bench.ExecuteOn(p.spec, p.builds[buildADE], peakOpts(), bench.ScaleSmall, bench.EngineVM)
			return err
		})
		res.attempted++
		if err != nil || mem.Peak != p.peak {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("%s: traced peak run differs from setup's (%v)", p.spec.Abbr, err))
		}
	}
}

func (res *vmResult) run(p *vmProgram, b int, tr *tracer) {
	abbr := p.spec.Abbr
	key := abbr + "/" + buildNames[b]
	var r *bench.Result
	err := tr.do(0, "bench.ExecuteOn", key, func() (err error) {
		r, err = bench.ExecuteOn(p.spec, p.builds[b], timingOpts(), bench.ScaleSmall, bench.EngineVM)
		return err
	})
	res.attempted++
	switch {
	case err != nil:
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: %v", key, err))
		return
	case outcomeOf(r) != p.oracle:
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: output %+v, oracle %+v", key, outcomeOf(r), p.oracle))
		return
	}
	s := &res.samples[abbr][b]
	s.whole = append(s.whole, ms(r.WallWhole))
	s.roi = append(s.roi, ms(r.WallROI))
	s.init = append(s.init, ms(r.WallInit))
	s.last = r
	c := res.counts[abbr]
	c[b] = countsOf(r.Stats)
	res.counts[abbr] = c
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medians returns, per program, the median of pick(samples) for build b.
func (res *vmResult) medians(b int, pick func(*vmSamples) []float64) map[string]float64 {
	out := map[string]float64{}
	for abbr, s := range res.samples {
		if xs := pick(&s[b]); len(xs) > 0 {
			out[abbr] = median(xs)
		}
	}
	return out
}

func wholeOf(s *vmSamples) []float64 { return s.whole }
func roiOf(s *vmSamples) []float64   { return s.roi }
func initOf(s *vmSamples) []float64  { return s.init }

func values(m map[string]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, x := range m {
		xs = append(xs, x)
	}
	return xs
}

// modeledMs is a run's modeled time on the paper's Intel cost table.
func modeledMs(st *interp.Stats) float64 { return st.ModeledNanos(interp.ArchIntelX64) / 1e6 }

// endToEnd adds the section's end-to-end metrics.
func (res *vmResult) endToEnd(m *metrics) {
	m.geomean("ade_whole_ms", "ms", values(res.medians(buildADE, wholeOf)))
	m.geomean("ade_roi_ms", "ms", values(res.medians(buildADE, roiOf)))
	m.geomean("memoir_whole_ms", "ms", values(res.medians(buildMemoir, wholeOf)))
	m.geomean("memoir_roi_ms", "ms", values(res.medians(buildMemoir, roiOf)))
	var peaks []float64
	for _, p := range res.progs {
		peaks = append(peaks, float64(p.peak)/(1<<20))
	}
	m.geomean("ade_peak_mb", "MB", peaks)
}

// perLayer adds the vm, collections and core-outcome metrics.
func (res *vmResult) perLayer(m *metrics) {
	whole := [2]map[string]float64{res.medians(buildMemoir, wholeOf), res.medians(buildADE, wholeOf)}
	roi := [2]map[string]float64{res.medians(buildMemoir, roiOf), res.medians(buildADE, roiOf)}
	init := [2]map[string]float64{res.medians(buildMemoir, initOf), res.medians(buildADE, initOf)}
	var spWhole, spROI, spModel, overModel, modelROI []float64
	var sparse, dense, trans uint64
	for _, p := range res.progs {
		a := p.spec.Abbr
		s := res.samples[a]
		if s[buildMemoir].last == nil || s[buildADE].last == nil {
			continue
		}
		spWhole = append(spWhole, whole[buildMemoir][a]/whole[buildADE][a])
		spROI = append(spROI, roi[buildMemoir][a]/roi[buildADE][a])
		ml, al := s[buildMemoir].last, s[buildADE].last
		spModel = append(spModel, modeledMs(ml.Stats)/modeledMs(al.Stats))
		mr := modeledMs(al.ROIStats)
		modelROI = append(modelROI, mr)
		overModel = append(overModel, roi[buildADE][a]/mr)
		c := res.counts[a][buildADE]
		sparse += c.Sparse
		dense += c.Dense
		trans += c.Translations
	}
	m.geomean("core.wall_speedup_whole", "x", spWhole)
	m.geomean("core.wall_speedup_roi", "x", spROI)
	m.geomean("core.model_speedup_whole", "x", spModel)
	m.set("coll.sparse_ops", "count", float64(sparse))
	m.set("coll.dense_ops", "count", float64(dense))
	m.set("coll.translations", "count", float64(trans))
	m.geomean("coll.model_roi_ms", "ms", modelROI)
	m.geomean("coll.wall_over_model", "x", overModel)
	for b, name := range buildNames {
		var steps uint64
		var perStep []float64
		var initSum, wholeSum float64
		for _, p := range res.progs {
			a := p.spec.Abbr
			last := res.samples[a][b].last
			if last == nil {
				continue
			}
			steps += last.Stats.Steps
			if n := last.ROIStats.Steps; n > 0 {
				perStep = append(perStep, roi[b][a]*1e6/float64(n))
			}
			initSum += init[b][a]
			wholeSum += whole[b][a]
		}
		m.set("vm.steps."+name, "count", float64(steps))
		m.geomean("vm.roi_ns_per_step."+name, "ns", perStep)
		m.set("vm.init_share."+name, "ratio", initSum/wholeSum)
	}
}

// rows prints the per-benchmark Fig. 5 rows: whole and ROI ms for both
// builds, wall and modeled speedup, ROI wall/model ratio of the ADE
// build and its init share.
func (res *vmResult) rows(w func(format string, args ...any)) {
	w("%-5s %9s %9s %9s %9s %7s %7s %7s %6s %6s", "bench", "memoir_ms", "ade_ms", "m_roi_ms", "a_roi_ms", "wall_x", "roi_x", "model_x", "w/m", "init")
	whole := [2]map[string]float64{res.medians(buildMemoir, wholeOf), res.medians(buildADE, wholeOf)}
	roi := [2]map[string]float64{res.medians(buildMemoir, roiOf), res.medians(buildADE, roiOf)}
	init := res.medians(buildADE, initOf)
	for _, p := range res.progs {
		a := p.spec.Abbr
		s := res.samples[a]
		if s[buildMemoir].last == nil || s[buildADE].last == nil {
			w("%-5s (no successful run)", a)
			continue
		}
		ml, al := s[buildMemoir].last, s[buildADE].last
		w("%-5s %9.3f %9.3f %9.3f %9.3f %7.3f %7.3f %7.3f %6.2f %6.3f", a,
			whole[buildMemoir][a], whole[buildADE][a], roi[buildMemoir][a], roi[buildADE][a],
			whole[buildMemoir][a]/whole[buildADE][a], roi[buildMemoir][a]/roi[buildADE][a],
			modeledMs(ml.Stats)/modeledMs(al.Stats), roi[buildADE][a]/modeledMs(al.ROIStats),
			init[a]/whole[buildADE][a])
	}
}
