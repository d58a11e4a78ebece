package bytecode

import "math/bits"

// Register coalescing. Codegen names every non-constant IR value by its
// slot, so each phi lowers to moves between distinct registers: one per
// incoming edge of an if-exit, loop-entry, latch or loop-exit phi. The
// coalescer runs on each function right after codegen and gives a
// move's destination and source one register whenever their live
// ranges do not interfere, which turns the move into a self-move that
// it deletes.
//
// Interference is Chaitin's rule over the emitted code: two registers
// interfere when one is live out of an instruction that writes the
// other, except that a move does not make its destination interfere
// with its own source. Merged registers interfere with the union of
// their neighbours. The liveness models every way the VM reaches a pc:
//   - a for-each writes its key and value on its latch edge, which goes
//     from the loop's entry or the end of its body to the next
//     iteration: entry and body end flow to a latch block, which flows
//     past the loop or to a bind block that writes the key and value
//     and flows to the body;
//   - the do-while exit repeats the latch copies, which codegen emits
//     as real moves after the exit jump;
//   - parameters are all written at entry, so they interfere pairwise,
//     as do the two results of one instruction.
//
// Only the candidates take part: the IR slots some move connects,
// numbered densely, so a function's sets are usually one word. Registers
// in the constant pool and scratch never coalesce. Parallel latch
// copies that conflict keep going through scratch staging: the liveness
// is computed on the staged, sequential code.
//
// Afterwards registers are renumbered densely in slot order (the
// parameters first), the constant pool follows and scratch sits on
// top; the code is compacted: self-moves vanish, a do-while latch
// left without moves becomes one jump.if back to its head, and a jump
// to the next surviving instruction is dropped. None of these opcodes
// steps, so the VM's counts cannot change.

// coalescer holds one program's coalescing scratch: two arenas the
// per-function arrays are carved from, reused from one function to the
// next.
type coalescer struct {
	f        *Func
	n        int // code length
	numSlots int // IR slots: registers [0,numSlots)
	nc       int // candidates
	words    int // bitset words per candidate set
	nb       int // code blocks; each for-each's latch and bind follow

	buf32 []int32
	buf64 []uint64
	off32 int
	off64 int
	uses  []int32 // per pc: candidate uses[useOff[pc]:useOff[pc+1]]

	cand    []int32 // per slot: its candidate index, or -1
	regOf   []int32 // per slot: its final register
	moves   []int32 // pcs of moves between two slots
	fePC    []int32 // pc of the i-th for-each
	blockOf []int32 // per pc: its block
	bStart  []int32 // per code block: first pc; bStart[nb] = n
	bSucc   []int32 // two successor blocks per block, -1 when absent
	defs    []int32 // two candidates written per pc, -1 when absent
	useOff  []int32
	depth   []int32 // per pc: loop nesting depth
	after   []int32 // per pc: surviving instructions at or after it
	parent  []int32 // union-find over candidates
	num     []int32 // per class representative: its final register
	gen     []uint64
	kill    []uint64
	live    []uint64 // live-in per block
	adj     []uint64 // interference rows
	hot     []uint64 // blocks that write a candidate
	tmp     []uint64
}

// take32 and take64 carve k elements from the arenas.
func (c *coalescer) take32(k int) []int32 {
	s := c.buf32[c.off32 : c.off32+k : c.off32+k]
	c.off32 += k
	return s
}

func (c *coalescer) take64(k int) []uint64 {
	s := c.buf64[c.off64 : c.off64+k : c.off64+k]
	c.off64 += k
	return s
}

// arena returns buf with room for n elements, zeroed if zero is set.
func arena[T any](buf []T, n int, zero bool) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	if zero {
		clear(buf)
	}
	return buf
}

func set(s []uint64, i int32)      { s[i/64] |= 1 << (uint(i) % 64) }
func has(s []uint64, i int32) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

func (c *coalescer) row(i int32) []uint64 {
	return c.adj[int(i)*c.words : (int(i)+1)*c.words]
}

func (c *coalescer) blockSet(s []uint64, b int) []uint64 {
	return s[b*c.words : (b+1)*c.words]
}

// slot maps a register to its IR slot, or -1 for constants and scratch.
func (c *coalescer) slot(r int32) int32 {
	if r >= 0 && int(r) < c.numSlots {
		return r
	}
	return -1
}

// candidate maps a register to its candidate index, or -1.
func (c *coalescer) candidate(r int32) int32 {
	if r >= 0 && int(r) < c.numSlots {
		return c.cand[r]
	}
	return -1
}

// destinations returns the registers in writes at its pc (the second
// one is OpEnumAdd's identifier), -1 when absent. A for-each's bindings
// are written on its latch edge, not at its pc.
func destinations(in *Instr) (d0, d1 int32) {
	d0, d1 = -1, -1
	switch {
	case writesDst(in.Op):
		d0 = in.Dst
		if in.Op == OpEnumAdd {
			d1 = in.Dst2
		}
	case in.Op == OpCall:
		d0 = in.Dst
	}
	return d0, d1
}

// coalesce rewrites f, compiled with register r for IR slot r (numSlots
// of them, slot 0 unused), the constant pool at [numSlots, scratchBase)
// and latch scratch above it.
func (c *coalescer) coalesce(f *Func, numSlots, scratchBase int) {
	c.f, c.n, c.numSlots = f, len(f.Code), numSlots
	if c.candidates() {
		c.scan()
		c.liveness()
		c.interfere()
		c.merge()
	}
	c.rewrite(scratchBase)
}

// candidates collects the for-eaches and the moves between two slots,
// whose slots become the candidates, and numbers the blocks. It reports
// whether there is any move to coalesce.
func (c *coalescer) candidates() bool {
	code, n := c.f.Code, c.n
	// The for-eaches and moves number at most n, blocks at most 3n,
	// candidates at most 2n: 19n+5 per-pc entries at most.
	c.buf32 = arena(c.buf32, 2*c.numSlots+20*n+8, false)
	c.off32 = 0
	c.cand = c.take32(c.numSlots)
	c.regOf = c.take32(c.numSlots)
	c.after = c.take32(n + 1)
	c.moves = c.take32(n)[:0]
	c.fePC = c.take32(n)[:0]
	c.blockOf = c.take32(n + 1)
	c.nc = 0
	for i := range c.cand {
		c.cand[i] = -1
	}
	lead := c.blockOf // 1 marks a leader until the blocks are numbered
	clear(lead)
	lead[0] = 1
	mark := func(t int32) {
		if int(t) < n {
			lead[t] = 1
		}
	}
	for pc := range code {
		in := &code[pc]
		switch in.Op {
		case OpJump, OpJumpIf, OpJumpIfNot:
			mark(in.Aux)
			mark(int32(pc + 1))
		case OpReturn, OpReturnVoid, OpRaise:
			mark(int32(pc + 1))
		case OpForEach:
			c.fePC = append(c.fePC, int32(pc))
			mark(int32(pc + 1))
			mark(in.Aux2)
		case OpMove:
			if d, s := c.slot(in.Dst), c.slot(in.A); d >= 0 && s >= 0 && d != s {
				c.moves = append(c.moves, int32(pc))
				for _, r := range [2]int32{d, s} {
					if c.cand[r] < 0 {
						c.cand[r] = int32(c.nc)
						c.nc++
					}
				}
			}
		}
	}
	c.parent = c.take32(c.nc)
	c.num = c.take32(c.nc)
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	if c.nc == 0 {
		return false
	}

	c.bStart = c.take32(n + 1)[:0]
	for pc := range code {
		if lead[pc] != 0 {
			c.bStart = append(c.bStart, int32(pc))
		}
		lead[pc] = int32(len(c.bStart) - 1)
	}
	c.nb = len(c.bStart)
	c.bStart = append(c.bStart, int32(n))
	blocks := c.nb + 2*len(c.fePC)
	c.bSucc = c.take32(2 * blocks)
	c.defs = c.take32(2 * n)
	c.useOff = c.take32(n + 1)
	c.depth = c.take32(n + 1)
	clear(c.depth)

	c.words = (c.nc + 63) / 64
	w := c.words
	c.buf64 = arena(c.buf64, (3*blocks+c.nc+1)*w+(blocks+63)/64, true)
	c.off64 = 0
	c.gen = c.take64(blocks * w)
	c.kill = c.take64(blocks * w)
	c.live = c.take64(blocks * w)
	c.adj = c.take64(c.nc * w)
	c.tmp = c.take64(w)
	c.hot = c.take64((blocks + 63) / 64)
	return true
}

// latchBlock and bindBlock are for-each fe's two extra blocks.
func (c *coalescer) latchBlock(fe int32) int32 { return int32(c.nb) + 2*fe }
func (c *coalescer) bindBlock(fe int32) int32  { return int32(c.nb) + 2*fe + 1 }

// scan records every pc's candidate definitions and uses, every
// block's gen and kill sets and successors, and the loop depth of
// every pc.
func (c *coalescer) scan() {
	code, n := c.f.Code, c.n
	var openBuf [8]int32
	open := openBuf[:0] // for-eaches whose body holds pc, innermost last
	// resolve maps a jump or fallthrough target t taken inside the body
	// of for-each fe to its block: reaching the body's end is the latch.
	resolve := func(t, fe int32) int32 {
		if fe >= 0 && t >= code[c.fePC[fe]].Aux2 {
			return c.latchBlock(fe)
		}
		if int(t) >= n {
			return -1
		}
		return c.blockOf[t]
	}
	b, fe := -1, int32(0)
	var gen, kill []uint64
	use := func(r int32) {
		if i := c.candidate(r); i >= 0 {
			c.uses = append(c.uses, i)
			if !has(kill, i) {
				set(gen, i)
			}
		}
	}
	// def records a write of register r by block blk, whose kill set is
	// ks, and returns r's candidate index.
	def := func(r int32, ks []uint64, blk int32) int32 {
		i := c.candidate(r)
		if i >= 0 {
			set(ks, i)
			set(c.hot, blk)
		}
		return i
	}
	c.uses = c.uses[:0]
	for pc := range code {
		in := &code[pc]
		for len(open) > 0 && int32(pc) >= code[c.fePC[open[len(open)-1]]].Aux2 {
			open = open[:len(open)-1]
		}
		if int(c.blockOf[pc]) != b {
			b = int(c.blockOf[pc])
			gen, kill = c.blockSet(c.gen, b), c.blockSet(c.kill, b)
		}
		c.useOff[pc] = int32(len(c.uses))
		ra, rb, rc := reads(in)
		if ra {
			use(in.A)
		}
		if rb {
			use(in.B)
		}
		if rc {
			use(in.C)
		}
		switch in.Op {
		case OpCall:
			for _, r := range c.f.ArgLists[in.Aux2] {
				use(r)
			}
		case OpTuple:
			for _, r := range c.f.ArgLists[in.Aux] {
				use(r)
			}
		}
		d0, d1 := destinations(in)
		c.defs[2*pc], c.defs[2*pc+1] = def(d0, kill, int32(b)), def(d1, kill, int32(b))

		if int(c.bStart[b+1]) != pc+1 {
			continue // falls through inside its block
		}
		enc := int32(-1)
		if len(open) > 0 {
			enc = open[len(open)-1]
		}
		s0, s1 := int32(-1), int32(-1)
		switch in.Op {
		case OpReturn, OpReturnVoid, OpRaise:
		case OpJump:
			s0 = resolve(in.Aux, enc)
			if in.Aux <= int32(pc) { // a do-while's back edge
				c.depth[in.Aux]++
				c.depth[pc+1]--
			}
		case OpJumpIf, OpJumpIfNot:
			s0, s1 = resolve(in.Aux, enc), resolve(int32(pc+1), enc)
		case OpForEach:
			l, bind := c.latchBlock(fe), c.bindBlock(fe)
			s0 = l
			c.bSucc[2*l], c.bSucc[2*l+1] = bind, resolve(in.Aux2, enc)
			c.bSucc[2*bind], c.bSucc[2*bind+1] = resolve(in.Aux, fe), -1
			k := c.blockSet(c.kill, int(bind))
			def(in.Dst, k, bind)
			def(in.Dst2, k, bind)
			c.depth[pc+1]++
			c.depth[in.Aux2]--
			open = append(open, fe)
			fe++
		default:
			s0 = resolve(int32(pc+1), enc)
		}
		c.bSucc[2*b], c.bSucc[2*b+1] = s0, s1
	}
	c.useOff[n] = int32(len(c.uses))
}

// liveOut leaves in c.tmp the union of block b's successors' live-in
// sets.
func (c *coalescer) liveOut(b int) []uint64 {
	out := c.tmp
	clear(out)
	for _, s := range c.bSucc[2*b : 2*b+2] {
		if s >= 0 {
			for i, x := range c.blockSet(c.live, int(s)) {
				out[i] |= x
			}
		}
	}
	return out
}

// flow recomputes block b's live-in set and reports whether it
// changed.
func (c *coalescer) flow(b int) bool {
	out := c.liveOut(b)
	gen, kill, in := c.blockSet(c.gen, b), c.blockSet(c.kill, b), c.blockSet(c.live, b)
	changed := false
	for i, x := range out {
		if x = gen[i] | x&^kill[i]; in[i] != x {
			in[i] = x
			changed = true
		}
	}
	return changed
}

// liveness solves the blocks' live-in sets backwards to a fixed point.
// Each sweep visits the code blocks in reverse, a for-each's bind and
// latch blocks just before the block its pc ends, so a loop nest
// converges in depth+1 sweeps.
func (c *coalescer) liveness() {
	for changed := true; changed; {
		changed = false
		fe := int32(len(c.fePC)) - 1
		for b := c.nb - 1; b >= 0; b-- {
			if fe >= 0 && c.fePC[fe] == c.bStart[b+1]-1 {
				changed = c.flow(int(c.bindBlock(fe))) || changed
				changed = c.flow(int(c.latchBlock(fe))) || changed
				fe--
			}
			changed = c.flow(b) || changed
		}
	}
}

// edge records that candidates a and b interfere.
func (c *coalescer) edge(a, b int32) {
	if a >= 0 && b >= 0 && a != b {
		set(c.row(a), b)
		set(c.row(b), a)
	}
}

// interfere builds the interference rows. Each block that writes a
// candidate is walked backwards from its live-out set.
func (c *coalescer) interfere() {
	for b := range c.nb + 2*len(c.fePC) {
		if !has(c.hot, int32(b)) {
			continue
		}
		live := c.liveOut(b)
		if b >= c.nb { // a bind block
			in := &c.f.Code[c.fePC[(b-c.nb)/2]]
			c.kills(live, c.candidate(in.Dst), c.candidate(in.Dst2), -1)
			continue
		}
		for pc := c.bStart[b+1] - 1; pc >= c.bStart[b]; pc-- {
			src := int32(-1)
			if in := &c.f.Code[pc]; in.Op == OpMove {
				src = c.candidate(in.A)
			}
			c.kills(live, c.defs[2*pc], c.defs[2*pc+1], src)
			for _, i := range c.uses[c.useOff[pc]:c.useOff[pc+1]] {
				set(live, i)
			}
		}
	}
	params := c.f.ParamRegs
	for i, p := range params {
		for _, q := range params[:i] {
			c.edge(c.candidate(p), c.candidate(q))
		}
	}
}

// kills records the interference of the candidates d0 and d1 (-1 when
// absent), written by one instruction, with each other and with live,
// the candidates live out of it, except for src, the source of a move;
// then it removes them from live.
func (c *coalescer) kills(live []uint64, d0, d1, src int32) {
	for _, d := range [2]int32{d0, d1} {
		if d < 0 {
			continue
		}
		row := c.row(d)
		for w, x := range live {
			if w == int(d/64) {
				x &^= 1 << (uint(d) % 64)
			}
			if src >= 0 && w == int(src/64) {
				x &^= 1 << (uint(src) % 64)
			}
			row[w] |= x
			for x != 0 {
				i := int32(w*64 + bits.TrailingZeros64(x))
				x &= x - 1
				set(c.row(i), d)
			}
		}
		live[d/64] &^= 1 << (uint(d) % 64)
	}
	c.edge(d0, d1)
}

func (c *coalescer) find(i int32) int32 {
	for c.parent[i] != i {
		c.parent[i] = c.parent[c.parent[i]]
		i = c.parent[i]
	}
	return i
}

// merge coalesces the two slots of every move whose classes do not
// interfere, innermost loops first: a move there runs most often, and
// each merge can only block later ones.
func (c *coalescer) merge() {
	code := c.f.Code
	maxDepth := int32(0)
	for pc, d := 0, int32(0); pc < c.n; pc++ {
		d += c.depth[pc]
		c.depth[pc] = d
		maxDepth = max(maxDepth, d)
	}
	for d := maxDepth; d >= 0; d-- {
		for _, pc := range c.moves {
			if c.depth[pc] != d {
				continue
			}
			a, b := c.find(c.cand[code[pc].Dst]), c.find(c.cand[code[pc].A])
			if a == b || has(c.row(a), b) {
				continue
			}
			// b's class joins a's: a inherits b's neighbours, and each
			// neighbour learns of a.
			ra, rb := c.row(a), c.row(b)
			for w, x := range rb {
				ra[w] |= x
				for x != 0 {
					i := int32(w*64 + bits.TrailingZeros64(x))
					x &= x - 1
					set(c.row(i), a)
				}
			}
			c.parent[b] = a
		}
	}
}

// rewrite renumbers every register, deletes self-moves, fuses do-while
// latches left without moves, drops jumps to the next instruction and
// compacts the code.
func (c *coalescer) rewrite(scratchBase int) {
	f, n := c.f, c.n
	code := f.Code

	// Number the slots' classes densely in slot order, so the
	// parameters, which hold the lowest slots, come first. Slot 0 is
	// never assigned.
	for i := range c.num {
		c.num[i] = -1
	}
	k := int32(0)
	c.regOf[0] = -1 // fails verification if anything names it
	for r := 1; r < c.numSlots; r++ {
		i := c.cand[r]
		if i < 0 {
			c.regOf[r] = k
			k++
			continue
		}
		rep := c.find(i)
		if c.num[rep] < 0 {
			c.num[rep] = k
			k++
		}
		c.regOf[r] = c.num[rep]
	}
	nConst := int32(len(f.Consts))
	remap := func(r int32) int32 {
		switch {
		case r < 0:
			return r
		case int(r) < c.numSlots:
			return c.regOf[r]
		case int(r) < scratchBase:
			return k + r - int32(c.numSlots)
		}
		return k + nConst + r - int32(scratchBase)
	}
	for i, r := range f.ParamRegs {
		f.ParamRegs[i] = remap(r)
	}
	for _, list := range f.ArgLists {
		for i, r := range list {
			list[i] = remap(r)
		}
	}
	for pc := range code {
		in := &code[pc]
		if d0, _ := destinations(in); d0 >= 0 || in.Op == OpForEach {
			in.Dst = remap(in.Dst)
		}
		if in.Op == OpEnumAdd || in.Op == OpForEach {
			in.Dst2 = remap(in.Dst2)
		}
		in.A, in.B, in.C = remap(in.A), remap(in.B), remap(in.C)
	}

	// Walk backwards deciding which instructions survive (codegen never
	// emits OpNop, so it marks the dead); after[t] counts the survivors
	// at or after t, so target t lands at new pc after[0]-after[t].
	selfMove := func(in *Instr) bool { return in.Op == OpMove && in.Dst == in.A }
	after := c.after
	after[n] = 0
	for pc := n - 1; pc >= 0; pc-- {
		in := &code[pc]
		dead := selfMove(in)
		switch {
		case in.Op == OpJump && in.Aux <= int32(pc):
			// A do-while latch: `jump.ifnot cond exit; <latch moves>;
			// jump head` with exit right after. Nothing else jumps into
			// it, so once its moves are gone it is one jump.if to head.
			p := pc - 1
			for p >= 0 && selfMove(&code[p]) {
				p--
			}
			if p >= 0 && code[p].Op == OpJumpIfNot && int(code[p].Aux) == pc+1 {
				code[p].Op, code[p].Aux = OpJumpIf, in.Aux
				dead = true
			}
		case in.Op == OpJump:
			// A forward jump: its target and fallthrough have settled.
			dead = after[in.Aux] == after[pc+1]
		}
		after[pc] = after[pc+1]
		if dead {
			in.Op = OpNop
		} else {
			after[pc]++
		}
	}
	total := after[0]
	out := 0
	for pc := range code {
		in := code[pc]
		switch in.Op {
		case OpNop:
			continue
		case OpJump, OpJumpIf, OpJumpIfNot:
			in.Aux = total - after[in.Aux]
		case OpForEach:
			in.Aux, in.Aux2 = total-after[in.Aux], total-after[in.Aux2]
		}
		code[out] = in
		out++
	}
	f.Code = code[:out]
	f.FrameLen = int(k) + int(nConst) + f.FrameLen - scratchBase
	f.NumSlots = int(k)
}
