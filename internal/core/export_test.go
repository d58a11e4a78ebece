package core

import "memoir/internal/ir"

// JoinProbe is one answer joinGain gave during Algorithm 3's sweep,
// next to a fresh, unmemoized evaluation of the same facet sets.
type JoinProbe struct {
	Sum, FreshSum int
	Cup, FreshCup int
	// AfterJoin is set when the probed candidate had already accepted
	// a join, so its memoized benefit must have been invalidated.
	AfterJoin bool
}

// SweepJoinProbes runs ADE on prog up to interprocedural unification
// (the sub-passes that form candidates, including the re-formation
// for cloned callees) and returns every joinGain answer with its fresh
// re-evaluation.
func SweepJoinProbes(prog *ir.Program, opts Options) ([]JoinProbe, error) {
	cx := newAdeCtx(prog, opts)
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		cx.fis[fn] = analyzeFunc(fn)
	}
	cx.rebuildLinkage()
	staticEnumerate(cx)

	var out []JoinProbe
	joined := map[*candidate]bool{}
	cx.onJoinGain = func(c *candidate, b *facet, bSum, bCup int) {
		p := JoinProbe{Sum: bSum, Cup: bCup, AfterJoin: joined[c]}
		p.FreshSum = cx.extBenefit(c.facets) + cx.extBenefit([]*facet{b})
		p.FreshCup = cx.extBenefit(append(append([]*facet(nil), c.facets...), b))
		if bCup > bSum {
			joined[c] = true // the sweep adds b next
		}
		out = append(out, p)
	}
	report := &Report{}
	cands := map[*ir.Func][]*candidate{}
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		cands[fn] = formCandidates(cx, cx.fis[fn], report)
	}
	ip := &interproc{cx: cx, prog: prog, opts: opts, report: report, fis: cx.fis, cands: cands, clones: map[string]string{}}
	_, _, err := ip.resolve()
	return out, err
}
