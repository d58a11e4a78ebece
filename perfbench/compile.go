package main

import (
	"fmt"
	"math/rand"
	"time"

	"memoir/internal/analysis"
	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/remarks"
)

// subPasses are the ADE sub-passes core.Apply times through its
// remarks emitter, in pipeline order.
var subPasses = []string{
	"use-analysis", "static-enum", "candidate-formation",
	"interprocedural-unification", "union-safety", "transform",
}

// compileProgram is one suite program as .mir text, with what every
// compile of it must reproduce.
type compileProgram struct {
	abbr string
	text string
	// pre is a parsed, never-transformed copy: the input of the traced
	// run's CloneProgram and IntervalsOf calls.
	pre *ir.Program
	// hash and instrs are the post-ADE ir.ProgramHash and the bytecode
	// instruction count of setup's compile.
	hash   string
	instrs int
}

// compileOpts are the ADE options of every compile: the defaults with
// the sandbox on, as adeserved runs them.
func compileOpts() core.Options {
	o := core.DefaultOptions()
	o.Sandbox = true
	return o
}

// compiled is the product of one text-to-bytecode compile.
type compiled struct {
	prog   *ir.Program
	bc     *bytecode.Prog
	report *core.Report
}

func instrCount(bc *bytecode.Prog) int {
	n := 0
	for _, f := range bc.Funcs {
		n += len(f.Code)
	}
	return n
}

// compileText runs parser.Parse → ir.Verify → core.Apply → ir.Verify →
// bytecode.Compile → bytecode.Verify. With a tracer each call is a
// child span of parent and the ADE sub-passes, read from a remarks
// emitter attached only then, are children of the core.Apply span.
func compileText(text string, opts core.Options, tr *tracer, parent int, key string) (*compiled, error) {
	var c compiled
	var err error
	if err := tr.do(parent, "parser.Parse", key, func() error {
		c.prog, err = parser.Parse(text)
		return err
	}); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := tr.do(parent, "ir.Verify", key, func() error { return ir.Verify(c.prog) }); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	var em *remarks.Emitter
	if tr != nil {
		em = remarks.NewEmitter()
		opts.Remarks = em
	}
	applyStart := time.Now()
	c.report, err = core.Apply(c.prog, opts)
	applyDur := time.Since(applyStart)
	if tr != nil {
		id := tr.add(parent, "core.Apply", key, applyStart, applyDur)
		// The emitter keeps durations, not starts: lay the sub-passes
		// out back to back from the start of Apply.
		at := applyStart
		for _, ph := range em.Phases {
			tr.add(id, "core."+ph.Name, key, at, ph.Duration)
			at = at.Add(ph.Duration)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("ade: %w", err)
	}
	if err := tr.do(parent, "ir.Verify", key, func() error { return ir.Verify(c.prog) }); err != nil {
		return nil, fmt.Errorf("verify after ade: %w", err)
	}
	if err := tr.do(parent, "bytecode.Compile", key, func() error {
		c.bc, err = bytecode.Compile(c.prog)
		return err
	}); err != nil {
		return nil, fmt.Errorf("bytecode: %w", err)
	}
	if err := tr.do(parent, "bytecode.Verify", key, func() error { return bytecode.Verify(c.bc) }); err != nil {
		return nil, fmt.Errorf("bytecode verify: %w", err)
	}
	return &c, nil
}

// setupCompile prints every suite program and compiles it once to
// record the hash and instruction count every later compile must
// reproduce.
func setupCompile() ([]*compileProgram, error) {
	var out []*compileProgram
	for _, s := range bench.All() {
		p := &compileProgram{abbr: s.Abbr, text: ir.Print(s.Build(""))}
		c, err := compileText(p.text, compileOpts(), nil, 0, p.abbr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Abbr, err)
		}
		if len(c.report.Degraded) > 0 {
			return nil, fmt.Errorf("%s: ade degraded: %v", s.Abbr, c.report.Degraded)
		}
		p.hash = ir.ProgramHash(c.prog)
		p.instrs = instrCount(c.bc)
		if p.pre, err = parser.Parse(p.text); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Abbr, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// compileResult is one pass of the suite-compile section.
type compileResult struct {
	progs []*compileProgram
	// ms are the text-to-verified-bytecode times per program.
	ms map[string][]float64
	// classes, statics and rewrites are the last compile's ADE report
	// counts per program.
	classes, statics, rewrites map[string]int
	rounds                     int
	attempted, failed          int
	errs                       []string
}

func newCompileResult(progs []*compileProgram) *compileResult {
	return &compileResult{progs: progs, ms: map[string][]float64{},
		classes: map[string]int{}, statics: map[string]int{}, rewrites: map[string]int{}}
}

// round compiles every program once, in seed-shuffled order. Each
// compile's post-ADE hash and instruction count are checked against
// setup's outside the timed window. With a tracer, each program also
// gets the calls the compile path does not make on its own:
// ir.CloneProgram and analysis.IntervalsOf on the pre-ADE program.
func (res *compileResult) round(rng *rand.Rand, tr *tracer) {
	for _, i := range rng.Perm(len(res.progs)) {
		res.compile(res.progs[i], tr)
	}
	res.rounds++
}

func (res *compileResult) compile(p *compileProgram, tr *tracer) {
	res.attempted++
	root := tr.open(0, "compile", p.abbr)
	start := time.Now()
	c, err := compileText(p.text, compileOpts(), tr, root, p.abbr)
	dur := time.Since(start)
	tr.close(root)
	if err != nil {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: %v", p.abbr, err))
		return
	}
	extras := tr.open(0, "extras", p.abbr)
	var hash string
	tr.do(extras, "ir.ProgramHash", p.abbr, func() error { hash = ir.ProgramHash(c.prog); return nil })
	if tr != nil {
		tr.do(extras, "ir.CloneProgram", p.abbr, func() error { ir.CloneProgram(p.pre); return nil })
		tr.do(extras, "analysis.IntervalsOf", p.abbr, func() error { analysis.IntervalsOf(p.pre); return nil })
	}
	tr.close(extras)
	if n := instrCount(c.bc); hash != p.hash || n != p.instrs {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: compile not deterministic: hash %.12s instrs %d, setup %.12s instrs %d",
			p.abbr, hash, n, p.hash, p.instrs))
		return
	}
	res.ms[p.abbr] = append(res.ms[p.abbr], ms(dur))
	res.classes[p.abbr] = len(c.report.Classes)
	res.statics[p.abbr] = len(c.report.Static)
	res.rewrites[p.abbr] = c.report.Rewrites
}

func (res *compileResult) endToEnd(m *metrics) {
	m.geomean("compile_ms", "ms", medians(res.ms))
}

// perLayer adds the parser, ir, analysis, core and bytecode metrics:
// per program the median self time of each call, then the geometric
// mean over programs.
func (res *compileResult) perLayer(m *metrics, tr *tracer) {
	self := func(metric, root, name string) { m.geomean(metric, "us", medians(tr.selfTimes(root, name))) }
	parse := tr.selfTimes("compile", "parser.Parse")
	var rate []float64
	for _, p := range res.progs {
		if xs := parse[p.abbr]; len(xs) > 0 {
			rate = append(rate, float64(len(p.text))/median(xs))
		}
	}
	m.geomean("parser.parse_us", "us", medians(parse))
	m.geomean("parser.bytes_per_us", "B/us", rate)
	// A compile verifies twice, before ADE and after it on a larger
	// program; one sample is the sum of the two.
	m.geomean("ir.verify_us", "us", medians(tr.selfTimesPerRoot("compile", "ir.Verify")))
	self("ir.hash_us", "extras", "ir.ProgramHash")
	self("ir.clone_us", "extras", "ir.CloneProgram")
	self("analysis.intervals_us", "extras", "analysis.IntervalsOf")
	m.geomean("core.apply_us", "us", medians(tr.durations("compile", "core.Apply")))
	for _, sp := range subPasses {
		self("core."+sp+"_us", "compile", "core."+sp)
	}
	self("core.sandbox_us", "compile", "core.Apply")
	sum := func(c map[string]int) float64 {
		n := 0
		for _, v := range c {
			n += v
		}
		return float64(n)
	}
	m.set("core.classes", "count", sum(res.classes))
	m.set("core.static_sites", "count", sum(res.statics))
	m.set("core.rewrites", "count", sum(res.rewrites))
	self("bytecode.compile_us", "compile", "bytecode.Compile")
	self("bytecode.verify_us", "compile", "bytecode.Verify")
	instrs := 0
	for _, p := range res.progs {
		instrs += p.instrs
	}
	m.set("bytecode.instrs", "count", float64(instrs))
}
