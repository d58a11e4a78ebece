package ir

// IterLocalAllocs classifies allocations whose instances die at the
// end of each iteration of their innermost enclosing loop: no SSA
// state of the collection flows through a header or exit phi of any
// enclosing loop. Both execution engines (the tree-walking interpreter
// and the bytecode VM) share this analysis so their peak-memory models
// agree: iteration-local allocations occupy one live-registry slot
// that each new instance replaces, modeling the allocator reclaiming
// the dead instance.
//
// The states of a collection are the forward closure of its allocation
// result through update instructions and phis, the closure
// UseInfo.Redefs computes. Here it runs over slot-indexed arrays, and
// only for functions that allocate inside a loop, over the slots
// FinalizeSlots assigns (it assigns them first if fn has none yet).
func IterLocalAllocs(fn *Func) map[*Instr]bool {
	if !allocInLoop(fn.Body, false) {
		return nil
	}
	g := newRedefGraph(fn)
	if g == nil {
		FinalizeSlots(fn)
		g = newRedefGraph(fn)
	}
	out := map[*Instr]bool{}
	forbidden := make([]int32, g.slots) // stamp of the allocation that forbids the slot
	seen := make([]int32, g.slots)      // stamp of the allocation whose closure holds the slot
	var work []int32
	stamp := int32(0)
	var enclosing [][2][]*Instr // header and exit phis of the loops around b
	var walk func(b *Block)
	walk = func(b *Block) {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *Instr:
				if n.Op != OpNew || len(enclosing) == 0 {
					continue
				}
				res := n.Result()
				if res == nil {
					out[n] = true
					continue
				}
				stamp++
				for _, phis := range enclosing {
					for _, list := range phis {
						for _, p := range list {
							if r := p.Result(); r != nil {
								forbidden[r.Slot] = stamp
							}
						}
					}
				}
				local := true
				seen[res.Slot] = stamp
				work = append(work[:0], int32(res.Slot))
				for len(work) > 0 && local {
					v := work[len(work)-1]
					work = work[:len(work)-1]
					if forbidden[v] == stamp {
						local = false
					}
					for e := g.head[v]; e >= 0; e = g.next[e] {
						if to := g.to[e]; seen[to] != stamp {
							seen[to] = stamp
							work = append(work, to)
						}
					}
				}
				if local {
					out[n] = true
				}
			case *If:
				walk(n.Then)
				walk(n.Else)
			case *ForEach:
				enclosing = append(enclosing, [2][]*Instr{n.HeaderPhis, n.ExitPhis})
				walk(n.Body)
				enclosing = enclosing[:len(enclosing)-1]
			case *DoWhile:
				enclosing = append(enclosing, [2][]*Instr{n.HeaderPhis, n.ExitPhis})
				walk(n.Body)
				enclosing = enclosing[:len(enclosing)-1]
			}
		}
	}
	walk(fn.Body)
	return out
}

// allocInLoop reports whether b, inside a loop when inLoop is set,
// holds an allocation inside a loop.
func allocInLoop(b *Block, inLoop bool) bool {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *Instr:
			if inLoop && n.Op == OpNew {
				return true
			}
		case *If:
			if allocInLoop(n.Then, inLoop) || allocInLoop(n.Else, inLoop) {
				return true
			}
		case *ForEach:
			if allocInLoop(n.Body, true) {
				return true
			}
		case *DoWhile:
			if allocInLoop(n.Body, true) {
				return true
			}
		}
	}
	return false
}

// redefGraph is the one-step redefinition relation over slots: an edge
// leads from the base collection of an update (its first argument) to
// the update's result, and from every argument of a phi to the phi's
// result. Edges of one slot form a linked list from head.
type redefGraph struct {
	slots int
	head  []int32
	next  []int32
	to    []int32
}

// newRedefGraph builds fn's graph, or returns nil when some result has
// no slot yet.
func newRedefGraph(fn *Func) *redefGraph {
	g := &redefGraph{slots: 1}
	var from []int32
	ok := true
	add := func(base, res *Value) {
		if base == nil || base.Kind == VConst || res == nil {
			return
		}
		from = append(from, int32(base.Slot))
		g.to = append(g.to, int32(res.Slot))
		g.slots = max(g.slots, base.Slot+1)
	}
	WalkInstrs(fn, func(in *Instr) {
		for _, r := range in.Results {
			ok = ok && r.Slot > 0
			g.slots = max(g.slots, r.Slot+1)
		}
		switch {
		case in.Op == OpPhi:
			for _, a := range in.Args {
				add(a.Base, in.Result())
			}
		case in.Op.IsUpdate() && len(in.Args) > 0:
			add(in.Args[0].Base, in.Result())
		}
	})
	if !ok {
		return nil
	}
	g.head = make([]int32, g.slots)
	for i := range g.head {
		g.head[i] = -1
	}
	g.next = make([]int32, len(from))
	for e, f := range from {
		g.next[e] = g.head[f]
		g.head[f] = int32(e)
	}
	return g
}
