package ir

// Def-use analysis. ADE's algorithms are phrased over Uses(v) and
// Redefs(v); both are computed on demand from the structured body.

// Operand-slot markers for uses that are not plain argument positions.
const (
	UseCond     = -1 // If.Cond or DoWhile.Cond
	UseLoopColl = -2 // ForEach.Coll base
)

// Use is a single use of a value.
type Use struct {
	// User is the consuming node: an *Instr, *If, *ForEach or
	// *DoWhile.
	User Node
	// Instr is User as an instruction, or nil for structural uses.
	Instr *Instr
	// Arg is the operand index in Instr.Args, or UseCond/UseLoopColl.
	Arg int
	// Path is -1 when the value is the operand base, otherwise the
	// index-step position within the operand path where the value
	// appears (an index use like x[%k]).
	Path int
}

// IsBase reports whether the use is the operand base (not a nested
// index).
func (u Use) IsBase() bool { return u.Path < 0 }

// UseInfo holds the def-use chains of one function.
type UseInfo struct {
	Fn   *Func
	uses map[*Value][]Use
	// LoopOf maps each for-each key/value binding to its loop.
	LoopOf map[*Value]*ForEach
}

// Uses returns all uses of v.
func (ui *UseInfo) Uses(v *Value) []Use { return ui.uses[v] }

func (ui *UseInfo) addOperandUses(user Node, in *Instr, argIdx int, op Operand) {
	if op.Base != nil && op.Base.Kind != VConst {
		ui.uses[op.Base] = append(ui.uses[op.Base], Use{User: user, Instr: in, Arg: argIdx, Path: -1})
	}
	for pi, ix := range op.Path {
		if ix.Kind == IdxValue && ix.Val != nil && ix.Val.Kind != VConst {
			ui.uses[ix.Val] = append(ui.uses[ix.Val], Use{User: user, Instr: in, Arg: argIdx, Path: pi})
		}
	}
}

// ComputeUses builds the def-use chains for fn.
func ComputeUses(fn *Func) *UseInfo {
	ui := &UseInfo{Fn: fn, uses: map[*Value][]Use{}, LoopOf: map[*Value]*ForEach{}}
	WalkNodes(fn.Body, func(n Node) {
		switch n := n.(type) {
		case *Instr:
			for i, a := range n.Args {
				ui.addOperandUses(n, n, i, a)
			}
		case *If:
			if n.Cond != nil && n.Cond.Kind != VConst {
				ui.uses[n.Cond] = append(ui.uses[n.Cond], Use{User: n, Arg: UseCond, Path: -1})
			}
		case *ForEach:
			ui.addOperandUses(n, nil, UseLoopColl, n.Coll)
			if n.Key != nil {
				ui.LoopOf[n.Key] = n
			}
			if n.Val != nil {
				ui.LoopOf[n.Val] = n
			}
		case *DoWhile:
			if n.Cond != nil && n.Cond.Kind != VConst {
				ui.uses[n.Cond] = append(ui.uses[n.Cond], Use{User: n, Arg: UseCond, Path: -1})
			}
		}
	})
	return ui
}

// Redefs computes the SSA states of the collection allocated by
// alloc: the transitive closure of the allocation result through
// update instructions (whose result is the new state) and phis.
func (ui *UseInfo) Redefs(alloc *Instr) []*Value {
	return ui.RedefsFrom(alloc.Result())
}

// RedefsFrom computes the SSA states of the collection bound to start
// (an allocation result or a collection-typed parameter).
func (ui *UseInfo) RedefsFrom(start *Value) []*Value {
	if start == nil {
		return nil
	}
	seen := map[*Value]bool{start: true}
	out := []*Value{start}
	work := []*Value{start}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range ui.Uses(v) {
			in := u.Instr
			if in == nil || !u.IsBase() {
				continue
			}
			var nv *Value
			switch {
			// Updates redefine the base collection even when they act
			// on a nested level (insert(x[k], v) yields a new state of
			// x).
			case in.Op.IsUpdate() && u.Arg == 0:
				nv = in.Result()
			case in.Op == OpPhi:
				nv = in.Result()
			}
			if nv != nil && !seen[nv] {
				seen[nv] = true
				out = append(out, nv)
				work = append(work, nv)
			}
		}
	}
	return out
}
