package ir

// Walk helpers over the structured body.

// WalkNodes visits every node in b recursively, in program order.
// Phis attached to structural nodes are visited at their positional
// placement: header phis before the loop body, exit phis right after
// the construct.
func WalkNodes(b *Block, f func(Node)) {
	for _, n := range b.Nodes {
		f(n)
		switch n := n.(type) {
		case *If:
			WalkNodes(n.Then, f)
			WalkNodes(n.Else, f)
			for _, p := range n.ExitPhis {
				f(p)
			}
		case *ForEach:
			for _, p := range n.HeaderPhis {
				f(p)
			}
			WalkNodes(n.Body, f)
			for _, p := range n.ExitPhis {
				f(p)
			}
		case *DoWhile:
			for _, p := range n.HeaderPhis {
				f(p)
			}
			WalkNodes(n.Body, f)
			for _, p := range n.ExitPhis {
				f(p)
			}
		}
	}
}

// WalkInstrs visits every instruction in fn, including phis.
func WalkInstrs(fn *Func, f func(*Instr)) {
	WalkNodes(fn.Body, func(n Node) {
		if in, ok := n.(*Instr); ok {
			f(in)
		}
	})
}

// FinalizeSlots assigns a frame slot to every non-constant value in fn
// (parameters, instruction results, loop bindings) and returns the
// frame size. Slot 0 is reserved so that an unassigned slot is
// detectable.
func FinalizeSlots(fn *Func) int {
	next := 1
	assign := func(v *Value) {
		if v != nil && v.Kind != VConst {
			v.Slot = next
			next++
		}
	}
	for _, p := range fn.Params {
		assign(p)
	}
	WalkNodes(fn.Body, func(n Node) {
		switch n := n.(type) {
		case *Instr:
			for _, r := range n.Results {
				assign(r)
			}
		case *ForEach:
			assign(n.Key)
			assign(n.Val)
		}
	})
	return next
}

// Allocations returns the OpNew instructions in fn in program order.
func Allocations(fn *Func) []*Instr {
	var out []*Instr
	WalkInstrs(fn, func(in *Instr) {
		if in.Op == OpNew {
			out = append(out, in)
		}
	})
	return out
}
