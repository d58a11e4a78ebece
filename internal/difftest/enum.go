package difftest

import (
	"fmt"
	"strings"

	"memoir/internal/ir"
)

// Skeletal program enumeration (adediff -enum), after Zhang/Sun/Su's
// Skeletal Program Enumeration: instead of sampling random programs
// (-seed), exhaustively walk every small program *shape* up to a
// statement bound. A skeleton is a control-flow shape — straight-line
// ('S') or the whole statement sequence wrapped in a counted loop
// ('L'), whose second iteration replays every operation against
// already-populated state — crossed with a sequence of statements
// drawn from a fixed alphabet of collection-op shapes (populate,
// delete, lookup, fold, sharing transfers, nested-map unions,
// interprocedural helper calls), each with its hole fillings (target
// collection, key derivation) baked into the token. The walk is purely
// deterministic: the same bound always yields the identical skeleton
// sequence, and a skeleton's ID spells out its construction
// (e.g. "skL:pm0.tms.dm0"), so any failure replays from the ID alone —
// no corpus files, no seeds.
//
// Skeletons are one of Run's three source kinds, so every skeleton runs
// through the same cells as a benchmark (baselines, every ADE
// configuration, and the @vm engine twin of each, under any -check,
// -fuel or injected fault). They are the one kind with prefixes: a
// failing skeleton cell is automatically reduced to the smallest
// statement-sequence prefix that still fails.

// Skeleton is one enumerated program shape.
type Skeleton struct {
	// ID is the stable replayable identifier, "sk<shape>:<tok>.<tok>…".
	ID string
	// Shape is 'S' (straight-line) or 'L' (statement sequence wrapped
	// in a counted loop executing twice).
	Shape byte
	// Stmts are indices into the statement alphabet.
	Stmts []int
}

func newSkeleton(shape byte, stmts []int) Skeleton {
	toks := make([]string, len(stmts))
	for i, s := range stmts {
		toks[i] = stmtAlphabet[s].tok
	}
	return Skeleton{
		ID:    fmt.Sprintf("sk%c:%s", shape, strings.Join(toks, ".")),
		Shape: shape,
		Stmts: stmts,
	}
}

// shapes lists the control-flow shapes in enumeration order.
var shapes = []byte{'S', 'L'}

// EnumeratePrograms walks every skeleton with 1..bound statements, in
// a stable deterministic order: by statement count, then
// lexicographically over the statement alphabet, each sequence in
// straight-line shape first and counted-loop shape second. The same
// bound always produces the identical ID sequence — the property the
// shard partitioning and replay-by-ID both rely on.
func EnumeratePrograms(bound int) []Skeleton {
	var out []Skeleton
	for n := 1; n <= bound; n++ {
		idx := make([]int, n)
		for {
			for _, shape := range shapes {
				out = append(out, newSkeleton(shape, append([]int(nil), idx...)))
			}
			i := n - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(stmtAlphabet) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return out
}

// SkeletonCount returns len(EnumeratePrograms(bound)) without
// materializing it.
func SkeletonCount(bound int) int {
	total, pow := 0, 1
	for n := 1; n <= bound; n++ {
		pow *= len(stmtAlphabet)
		total += len(shapes) * pow
	}
	return total
}

// ParseSkeletonID reconstructs a skeleton from its ID — the
// replay-by-ID path behind adediff -enum-id.
func ParseSkeletonID(id string) (Skeleton, error) {
	rest, ok := strings.CutPrefix(id, "sk")
	if !ok || len(rest) < 3 || rest[1] != ':' {
		return Skeleton{}, fmt.Errorf("skeleton id %q: want sk<S|L>:<tok>.<tok>…", id)
	}
	shape := rest[0]
	if shape != 'S' && shape != 'L' {
		return Skeleton{}, fmt.Errorf("skeleton id %q: unknown shape %q (want S or L)", id, string(shape))
	}
	var stmts []int
	for _, tok := range strings.Split(rest[2:], ".") {
		i := stmtIndex(tok)
		if i < 0 {
			return Skeleton{}, fmt.Errorf("skeleton id %q: unknown statement %q (have %s)",
				id, tok, strings.Join(StatementTokens(), ", "))
		}
		stmts = append(stmts, i)
	}
	sk := newSkeleton(shape, stmts)
	if sk.ID != id {
		return Skeleton{}, fmt.Errorf("skeleton id %q: not canonical (want %q)", id, sk.ID)
	}
	return sk, nil
}

// --- the statement alphabet ---

// skelProg is the build state of one skeleton program: the input
// parameter, the (at most four) collection slots its statements
// reference, and the running checksum.
type skelProg struct {
	b     *ir.Builder
	input *ir.Value
	m0    *ir.Value // Map<u64,u64>
	m1    *ir.Value // Map<u64,u64>
	s0    *ir.Value // Set<u64>
	nm    *ir.Value // Map<u64,Set<u64>>
	acc   *ir.Value
}

func (p *skelProg) c(x uint64) *ir.Value { return ir.ConstInt(ir.TU64, x) }

// mix folds a value into the checksum commutatively (addition of a
// hashed contribution), so iteration-order differences between
// configurations cannot leak into the output.
func (p *skelProg) mix(acc, v *ir.Value) *ir.Value {
	h := p.b.Bin(ir.BinMul, v, p.c(0x9E3779B97F4A7C15), "")
	return p.b.Bin(ir.BinAdd, acc, h, "")
}

// Key derivations — the hole fillings of populate/delete statements.
// Fixed constants keep the walk deterministic, and the identity fill
// appearing in both populate and delete tokens is what makes
// insert/delete interleavings actually collide on keys.
func fillID(p *skelProg, v *ir.Value) *ir.Value  { return v }
func fillMul(p *skelProg, v *ir.Value) *ir.Value { return p.b.Bin(ir.BinMul, v, p.c(3), "") }
func fillXor(p *skelProg, v *ir.Value) *ir.Value { return p.b.Bin(ir.BinXor, v, p.c(0x555), "") }
func fillAdd(p *skelProg, v *ir.Value) *ir.Value { return p.b.Bin(ir.BinAdd, v, p.c(17), "") }

type fillFn func(*skelProg, *ir.Value) *ir.Value

// populateMap: for v in input: k := fill(v); insert k; write m[k]=v.
func (p *skelProg) populateMap(m *ir.Value, fill fillFn) *ir.Value {
	l := ir.StartForEach(p.b, ir.Op(p.input), m)
	k := fill(p, l.Val)
	m1 := p.b.Insert(ir.Op(l.Cur[0]), k, "")
	m2 := p.b.Write(ir.Op(m1), k, l.Val, "")
	return l.End(m2)[0]
}

// populateSet: for v in input: insert fill(v).
func (p *skelProg) populateSet(s *ir.Value, fill fillFn) *ir.Value {
	l := ir.StartForEach(p.b, ir.Op(p.input), s)
	k := fill(p, l.Val)
	return l.End(p.b.Insert(ir.Op(l.Cur[0]), k, ""))[0]
}

// deleteKeys: for v in input: remove fill(v) — a no-op on keys that
// were never inserted, a shrink on those that were.
func (p *skelProg) deleteKeys(c *ir.Value, fill fillFn) *ir.Value {
	l := ir.StartForEach(p.b, ir.Op(p.input), c)
	k := fill(p, l.Val)
	return l.End(p.b.Remove(ir.Op(l.Cur[0]), k, ""))[0]
}

// probeMap: for v in input: membership in m, plus a guarded read
// folded into the checksum.
func (p *skelProg) probeMap(m *ir.Value) {
	l := ir.StartForEach(p.b, ir.Op(p.input), p.acc)
	hs := p.b.Has(ir.Op(m), l.Val, "")
	one := p.b.Select(hs, p.c(1), p.c(0), "")
	acc := p.b.Bin(ir.BinAdd, l.Cur[0], one, "")
	merged := ir.IfElse(p.b, hs, func() []*ir.Value {
		got := p.b.Read(ir.Op(m), l.Val, "")
		return []*ir.Value{p.mix(acc, got)}
	}, func() []*ir.Value {
		return []*ir.Value{acc}
	})
	p.acc = l.End(merged[0])[0]
}

// probeSet: for v in input: membership in s.
func (p *skelProg) probeSet(s *ir.Value) {
	l := ir.StartForEach(p.b, ir.Op(p.input), p.acc)
	hs := p.b.Has(ir.Op(s), l.Val, "")
	one := p.b.Select(hs, p.c(1), p.c(0), "")
	p.acc = l.End(p.b.Bin(ir.BinAdd, l.Cur[0], one, ""))[0]
}

// foldMap: for (k,v) in m: fold both into the checksum.
func (p *skelProg) foldMap(m *ir.Value) {
	l := ir.StartForEach(p.b, ir.Op(m), p.acc)
	p.acc = l.End(p.mix(p.mix(l.Cur[0], l.Key), l.Val))[0]
}

// foldSet: for v in s: fold into the checksum.
func (p *skelProg) foldSet(s *ir.Value) {
	l := ir.StartForEach(p.b, ir.Op(s), p.acc)
	p.acc = l.End(p.mix(l.Cur[0], l.Val))[0]
}

// shareMapSet: for (k,_) in m0: insert k into s0 — the sharing pair
// (m0's key domain flows into s0's element domain).
func (p *skelProg) shareMapSet() {
	l := ir.StartForEach(p.b, ir.Op(p.m0), p.s0)
	p.s0 = l.End(p.b.Insert(ir.Op(l.Cur[0]), l.Key, ""))[0]
}

// shareMapMap: for (k,v) in m0: m1[v] += k — propagated values become
// keys, the propagation trigger. The write accumulates rather than
// overwrites: m0 can hold several keys with the same value (pm0+pm1
// compose that way), and a last-writer-wins transfer would leak m0's
// iteration order into the output — the bound-3 sweep caught exactly
// that in this statement's first version.
func (p *skelProg) shareMapMap() {
	l := ir.StartForEach(p.b, ir.Op(p.m0), p.m1)
	known := p.b.Has(ir.Op(l.Cur[0]), l.Val, "")
	upd := ir.IfElse(p.b, known, func() []*ir.Value {
		cur := p.b.Read(ir.Op(l.Cur[0]), l.Val, "")
		return []*ir.Value{p.b.Write(ir.Op(l.Cur[0]), l.Val, p.b.Bin(ir.BinAdd, cur, l.Key, ""), "")}
	}, func() []*ir.Value {
		d := p.b.Insert(ir.Op(l.Cur[0]), l.Val, "")
		return []*ir.Value{p.b.Write(ir.Op(d), l.Val, l.Key, "")}
	})
	p.m1 = l.End(upd[0])[0]
}

// nested: the PTA shape — populate nm[v], seed its inner set, union
// the inner set at input[i/2] (already populated: i/2 <= i) into it,
// and fold the resulting size.
func (p *skelProg) nested() {
	l := ir.StartForEach(p.b, ir.Op(p.input), p.nm, p.acc)
	n1 := p.b.Insert(ir.Op(l.Cur[0]), l.Val, "")
	seeded := p.b.Bin(ir.BinXor, l.Val, p.c(0xABCD), "")
	n2 := p.b.Insert(ir.OpAt(n1, l.Val), seeded, "")
	half := p.b.Bin(ir.BinDiv, l.Key, p.c(2), "")
	src := p.b.Read(ir.Op(p.input), half, "")
	n3 := p.b.Union(ir.OpAt(n2, l.Val), ir.OpAt(n2, src), "")
	sz := p.b.Size(ir.OpAt(n3, l.Val), "")
	outs := l.End(n3, p.b.Bin(ir.BinAdd, l.Cur[1], sz, ""))
	p.nm, p.acc = outs[0], outs[1]
}

// callHelper routes m0 through the non-exported probe helper —
// Algorithm 5's argument/parameter unification shape.
func (p *skelProg) callHelper() {
	r := p.b.Call(skelHelperName, ir.TU64, "", ir.Op(p.m0))
	p.acc = p.b.Bin(ir.BinAdd, p.acc, r, "")
}

const skelHelperName = "skhelper"

// buildSkelHelper constructs the shared probe helper: iterate the
// parameter map, re-read the own key, fold.
func buildSkelHelper() *ir.Func {
	h := ir.NewFunc(skelHelperName, ir.TU64)
	hm := h.Param("m", ir.MapOf(ir.TU64, ir.TU64))
	l := ir.StartForEach(h, ir.Op(hm), ir.ConstInt(ir.TU64, 0))
	got := h.Read(ir.Op(hm), l.Key, "")
	mixv := h.Bin(ir.BinMul, got, ir.ConstInt(ir.TU64, 0x9E3779B97F4A7C15), "")
	acc := h.Bin(ir.BinAdd, l.Cur[0], mixv, "")
	h.Ret(l.End(acc)[0])
	return h.Fn
}

// stmtSpec is one letter of the statement alphabet. needs lists the
// slot letters the statement touches: 'a' m0, 'b' m1, 's' s0, 'n' nm,
// 'h' the helper function.
type stmtSpec struct {
	tok   string
	needs string
	desc  string
	build func(*skelProg)
}

// stmtAlphabet is the fixed statement vocabulary. Order is part of the
// enumeration contract: appending new statements keeps old IDs valid,
// reordering or renaming breaks them — treat it like a wire format.
var stmtAlphabet = []stmtSpec{
	{"pm0", "a", "populate m0 (k = v)", func(p *skelProg) { p.m0 = p.populateMap(p.m0, fillID) }},
	{"pm1", "a", "populate m0 (k = 3·v)", func(p *skelProg) { p.m0 = p.populateMap(p.m0, fillMul) }},
	{"pm2", "b", "populate m1 (k = v ⊕ 0x555)", func(p *skelProg) { p.m1 = p.populateMap(p.m1, fillXor) }},
	{"ps0", "s", "populate s0 (k = v)", func(p *skelProg) { p.s0 = p.populateSet(p.s0, fillID) }},
	{"ps1", "s", "populate s0 (k = v + 17)", func(p *skelProg) { p.s0 = p.populateSet(p.s0, fillAdd) }},
	{"dm0", "a", "delete input keys from m0", func(p *skelProg) { p.m0 = p.deleteKeys(p.m0, fillID) }},
	{"ds0", "s", "delete input keys from s0", func(p *skelProg) { p.s0 = p.deleteKeys(p.s0, fillID) }},
	{"lm0", "a", "lookup m0 per input key (guarded read)", func(p *skelProg) { p.probeMap(p.m0) }},
	{"ls0", "s", "lookup s0 per input key (membership)", func(p *skelProg) { p.probeSet(p.s0) }},
	{"fm0", "a", "for-each fold of m0", func(p *skelProg) { p.foldMap(p.m0) }},
	{"fs0", "s", "for-each fold of s0", func(p *skelProg) { p.foldSet(p.s0) }},
	{"tms", "as", "share m0 keys → s0 (sharing pair)", func(p *skelProg) { p.shareMapSet() }},
	{"tmm", "ab", "share m0 values → m1 keys (propagation)", func(p *skelProg) { p.shareMapMap() }},
	{"nst", "n", "nested-map populate + union (PTA shape)", func(p *skelProg) { p.nested() }},
	{"cal", "ah", "route m0 through the probe helper (interprocedural)", func(p *skelProg) { p.callHelper() }},
}

func stmtIndex(tok string) int {
	for i, s := range stmtAlphabet {
		if s.tok == tok {
			return i
		}
	}
	return -1
}

// StatementTokens lists the alphabet tokens in enumeration order.
func StatementTokens() []string {
	out := make([]string, len(stmtAlphabet))
	for i, s := range stmtAlphabet {
		out[i] = s.tok
	}
	return out
}

// StatementDescriptions maps each token to its one-line description
// (adediff -list-enum).
func StatementDescriptions() map[string]string {
	out := make(map[string]string, len(stmtAlphabet))
	for _, s := range stmtAlphabet {
		out[s.tok] = s.desc
	}
	return out
}

// Build constructs the skeleton's program: @main(input Seq<u64>)
// declaring exactly the collection slots its statements reference,
// running the statement sequence (once, or twice inside a counted
// loop for the 'L' shape), then folding every slot's final contents
// and size into the emitted order-insensitive checksum.
func (sk Skeleton) Build() *ir.Program {
	b := ir.NewFunc("main", ir.TU64)
	b.Fn.Exported = true
	p := &skelProg{b: b}
	p.input = b.Param("input", ir.SeqOf(ir.TU64))
	p.acc = ir.ConstInt(ir.TU64, 0)

	var needs string
	for _, si := range sk.Stmts {
		needs += stmtAlphabet[si].needs
	}
	// Fixed creation order: allocation-site ordinals (telemetry keys,
	// alloc-fail fault points) must not depend on statement order.
	if strings.ContainsRune(needs, 'a') {
		p.m0 = b.New(ir.MapOf(ir.TU64, ir.TU64), "m0")
	}
	if strings.ContainsRune(needs, 'b') {
		p.m1 = b.New(ir.MapOf(ir.TU64, ir.TU64), "m1")
	}
	if strings.ContainsRune(needs, 's') {
		p.s0 = b.New(ir.SetOf(ir.TU64), "s0")
	}
	if strings.ContainsRune(needs, 'n') {
		p.nm = b.New(ir.MapOf(ir.TU64, ir.SetOf(ir.TU64)), "nm")
	}

	run := func() {
		for _, si := range sk.Stmts {
			stmtAlphabet[si].build(p)
		}
	}
	if sk.Shape == 'L' {
		// Thread every live slot (and the checksum) through the
		// counted loop as carried state; the second iteration replays
		// the whole sequence against the first iteration's results.
		var slots []**ir.Value
		for _, s := range []**ir.Value{&p.m0, &p.m1, &p.s0, &p.nm} {
			if *s != nil {
				slots = append(slots, s)
			}
		}
		slots = append(slots, &p.acc)
		init := make([]*ir.Value, len(slots))
		for i, s := range slots {
			init[i] = *s
		}
		outs := ir.CountedLoop(b, p.c(2), init, func(_ *ir.Value, cur []*ir.Value) []*ir.Value {
			for i, s := range slots {
				*s = cur[i]
			}
			run()
			latch := make([]*ir.Value, len(slots))
			for i, s := range slots {
				latch[i] = *s
			}
			return latch
		})
		for i, s := range slots {
			*s = outs[i]
		}
	} else {
		run()
	}

	// Summarize: every slot's size and full contents feed the
	// checksum, so any corrupted element anywhere is observable.
	for _, m := range []*ir.Value{p.m0, p.m1} {
		if m == nil {
			continue
		}
		p.foldMap(m)
		p.acc = b.Bin(ir.BinAdd, p.acc, b.Size(ir.Op(m), ""), "")
	}
	if p.s0 != nil {
		p.foldSet(p.s0)
		p.acc = b.Bin(ir.BinAdd, p.acc, b.Size(ir.Op(p.s0), ""), "")
	}
	if p.nm != nil {
		l := ir.StartForEach(b, ir.Op(p.nm), p.acc)
		il := ir.StartForEach(b, ir.OpAt(p.nm, l.Key), l.Cur[0])
		inner := il.End(p.mix(il.Cur[0], il.Val))[0]
		withSz := b.Bin(ir.BinAdd, inner, b.Size(ir.OpAt(p.nm, l.Key), ""), "")
		p.acc = l.End(withSz)[0]
	}
	b.Emit(p.acc)
	b.Ret(p.acc)

	prog := ir.NewProgram()
	if strings.ContainsRune(needs, 'h') {
		prog.Add(buildSkelHelper())
	}
	prog.Add(b.Fn)
	return prog
}

// EnumInput is the fixed input every skeleton runs on: sparse-ish keys
// with duplicates and near-collisions, small enough that a full sweep
// stays fast but rich enough that deletes hit, probes both hit and
// miss, and enumerations see re-adds.
func EnumInput() []uint64 {
	return []uint64{
		1, 2, 3, 5, 8, 13, 2, 21,
		34, 55, 89, 144, 5, 233, 377, 610,
		0x10001, 0x20002, 1, 0x40004,
	}
}

// source is the skeleton's program on the fixed EnumInput. Its
// prefixes are the proper statement-sequence prefixes in the same
// shape, shortest first: sequences are prefix-closed by construction,
// so every prefix is itself a valid enumerated skeleton.
func (sk Skeleton) source() source {
	return source{
		name:  sk.ID,
		build: sk.Build,
		input: seqInput(EnumInput()),
		prefixes: func() []source {
			var out []source
			for n := 1; n < len(sk.Stmts); n++ {
				out = append(out, newSkeleton(sk.Shape, sk.Stmts[:n]).source())
			}
			return out
		},
	}
}
