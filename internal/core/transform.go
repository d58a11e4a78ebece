package core

import (
	"fmt"
	"sort"
	"strings"

	"memoir/internal/collections"
	"memoir/internal/ir"
	"memoir/internal/remarks"
)

// transformer rewrites one function for a set of enumeration classes.
//
// Translation placement: one translation per (value, class) is hoisted
// to just after the value's definition (Listing 2 translates each
// value once, not once per use). RTE (when enabled) then removes the
// translations that Algorithm 2 proves redundant: identifiers flowing
// into identifier positions, and identifier-to-identifier equality.
type transformer struct {
	cx      *adeCtx
	fi      *fnInfo
	opts    Options
	classOf map[*facet]*classInfo

	// owner assigns identifier-valued values to their class after the
	// joint fixpoint; poisoned values stay plain (their identifier
	// inputs are decoded at the defining edges).
	owner  map[*ir.Value]*classInfo
	poison map[*ir.Value]bool

	// wants maps patch points to the class whose identifiers the
	// position expects; wantsAdd marks ToAdd positions.
	wants    map[patchPoint]*classInfo
	wantsAdd map[patchPoint]bool
	// facet order for deterministic processing.
	wantsOrder []patchPoint

	// enumVal is the SSA value holding each class's enumeration global
	// in this function.
	enumVal map[*classInfo]*ir.Value

	// insertion buffers.
	entry   []*ir.Instr
	before  map[ir.Node][]*ir.Instr
	after   map[ir.Node][]*ir.Instr
	atStart map[*ir.Block][]*ir.Instr
	atEnd   map[*ir.Block][]*ir.Instr

	// hoisted translations: (value, class) -> id value.
	encCache map[hoistKey]*ir.Value
	decCache map[hoistKey]*ir.Value

	// phiLoc locates structural phis for edge insertions.
	phiLoc map[*ir.Instr]phiLocation
	// loopOfBinding locates for-each bindings.
	loopOfBinding map[*ir.Value]*ir.ForEach
	// parentOf locates each instruction node's parent block.
	parentOf map[ir.Node]*ir.Block

	nameID int
}

type hoistKey struct {
	v  *ir.Value
	ci *classInfo
}

type phiLocation struct {
	role   ir.PhiRole
	ifNode *ir.If
	loop   ir.Node // *ir.ForEach or *ir.DoWhile
	parent *ir.Block
}

// transformFunc applies the class patches to one function.
func transformFunc(cx *adeCtx, fi *fnInfo, opts Options, classOf map[*facet]*classInfo) error {
	tr := &transformer{
		cx: cx, fi: fi, opts: opts, classOf: classOf,
		owner: map[*ir.Value]*classInfo{}, poison: map[*ir.Value]bool{},
		wants: map[patchPoint]*classInfo{}, wantsAdd: map[patchPoint]bool{},
		enumVal: map[*classInfo]*ir.Value{},
		before:  map[ir.Node][]*ir.Instr{}, after: map[ir.Node][]*ir.Instr{},
		atStart: map[*ir.Block][]*ir.Instr{}, atEnd: map[*ir.Block][]*ir.Instr{},
		encCache: map[hoistKey]*ir.Value{}, decCache: map[hoistKey]*ir.Value{},
		phiLoc:        map[*ir.Instr]phiLocation{},
		loopOfBinding: map[*ir.Value]*ir.ForEach{},
		parentOf:      map[ir.Node]*ir.Block{},
	}
	return tr.run()
}

func (tr *transformer) fnClasses() []*classInfo {
	seen := map[*classInfo]bool{}
	var out []*classInfo
	for _, s := range tr.fi.sites {
		for _, f := range []*facet{s.key, s.elem} {
			if f == nil {
				continue
			}
			if ci := tr.classOf[f]; ci != nil && !seen[ci] {
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (tr *transformer) run() error {
	classes := tr.fnClasses()
	if len(classes) == 0 {
		return nil
	}
	tr.indexStructure()
	tr.collectWants()
	tr.fixpointOwners()
	tr.rewriteTypes()
	tr.loadEnums(classes)
	if err := tr.patch(); err != nil {
		return err
	}
	tr.flushInsertions()
	return nil
}

// indexStructure records where every structural phi, binding, and
// instruction lives.
func (tr *transformer) indexStructure() {
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, n := range b.Nodes {
			tr.parentOf[n] = b
			switch n := n.(type) {
			case *ir.If:
				for _, p := range n.ExitPhis {
					tr.phiLoc[p] = phiLocation{role: ir.PhiIfExit, ifNode: n, parent: b}
				}
				walk(n.Then)
				walk(n.Else)
			case *ir.ForEach:
				for _, p := range n.HeaderPhis {
					tr.phiLoc[p] = phiLocation{role: ir.PhiLoopHeader, loop: n, parent: b}
				}
				for _, p := range n.ExitPhis {
					tr.phiLoc[p] = phiLocation{role: ir.PhiLoopExit, loop: n, parent: b}
				}
				tr.loopOfBinding[n.Key] = n
				tr.loopOfBinding[n.Val] = n
				walk(n.Body)
			case *ir.DoWhile:
				for _, p := range n.HeaderPhis {
					tr.phiLoc[p] = phiLocation{role: ir.PhiLoopHeader, loop: n, parent: b}
				}
				for _, p := range n.ExitPhis {
					tr.phiLoc[p] = phiLocation{role: ir.PhiLoopExit, loop: n, parent: b}
				}
				walk(n.Body)
			}
		}
	}
	walk(tr.fi.fn.Body)
}

func (tr *transformer) collectWants() {
	for _, s := range tr.fi.sites {
		for _, f := range []*facet{s.key, s.elem} {
			if f == nil {
				continue
			}
			ci := tr.classOf[f]
			if ci == nil {
				continue
			}
			record := func(pp patchPoint, add bool) {
				if _, dup := tr.wants[pp]; !dup {
					tr.wantsOrder = append(tr.wantsOrder, pp)
				}
				tr.wants[pp] = ci
				if add {
					tr.wantsAdd[pp] = true
				}
			}
			for _, pp := range f.toEnc {
				record(pp, false)
			}
			for _, pp := range f.toAdd {
				record(pp, true)
			}
		}
	}
}

// fixpointOwners runs the joint identifier-ness fixpoint across all
// classes in the function: seeds flow through phis and selects; a
// value reachable from two different classes is poisoned (stays a
// plain value, with identifier inputs decoded at their edges).
func (tr *transformer) fixpointOwners() {
	for {
		owner := map[*ir.Value]*classInfo{}
		conflict := false
		claim := func(v *ir.Value, ci *classInfo) bool {
			if v == nil || tr.poison[v] {
				return false
			}
			if cur, ok := owner[v]; ok {
				if cur != ci {
					tr.poison[v] = true
					conflict = true
				}
				return false
			}
			owner[v] = ci
			return true
		}
		for _, s := range tr.fi.sites {
			for _, f := range []*facet{s.key, s.elem} {
				if f == nil {
					continue
				}
				ci := tr.classOf[f]
				if ci == nil {
					continue
				}
				for _, v := range f.idSources {
					claim(v, ci)
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for v, ci := range owner {
				for _, u := range tr.fi.ui.Uses(v) {
					in := u.Instr
					if in == nil || !u.IsBase() {
						continue
					}
					var res *ir.Value
					switch in.Op {
					case ir.OpPhi:
						res = in.Result()
					case ir.OpSelect:
						if u.Arg != 0 {
							res = in.Result()
						}
					}
					if res != nil && enumerableKey(res.Type) {
						if claim(res, ci) {
							changed = true
						}
					}
				}
			}
		}
		if !conflict {
			tr.owner = owner
			return
		}
	}
}

// rewriteTypes retypes enumerated collection levels to idx keys (and
// idx elements for propagators), applies the dense selection, and
// retypes identifier-valued values. Allocation types are deep-copied
// first so clones and unrelated functions sharing type values are
// unaffected.
func (tr *transformer) rewriteTypes() {
	fresh := map[any]*ir.CollType{}
	for _, s := range tr.fi.sites {
		if tr.classOf[s.key] == nil && tr.classOf[s.elem] == nil {
			continue
		}
		if _, done := fresh[s.rootID]; done {
			continue
		}
		var rootType *ir.CollType
		switch {
		case s.alloc() != nil:
			rootType = s.alloc().Alloc
		case s.param != nil:
			rootType = ir.AsColl(s.param.Type)
		}
		ct := copyCollType(rootType)
		fresh[s.rootID] = ct
		for _, a := range s.allocs {
			a.Alloc = ct
		}
		if s.param != nil {
			s.param.Type = ct
		}
		for v := range s.redefs {
			v.Type = ct
		}
	}
	for _, s := range tr.fi.sites {
		kc, ec := tr.classOf[s.key], tr.classOf[s.elem]
		if kc == nil && ec == nil {
			continue
		}
		root := fresh[s.rootID]
		ct := typeAtDepth(root, s.depth)
		s.collType = ct
		if kc != nil {
			ct.Key = ir.TIdx
			ct.Sel = tr.enumImpl(s, kc, ct)
			if tr.cx.remarksOn() {
				r := tr.cx.siteRemark(remarks.CodeSelectImpl, "select", s)
				r.Message = "dense implementation selected"
				src := "default"
				if _, ok := tr.profileImpl(s, kc, ct); ok {
					src = "profile"
				}
				if s.dir != nil && s.dir.Select != collections.ImplNone {
					src = "pragma"
				}
				r.Args = []remarks.Arg{
					{Key: "impl", Val: ct.Sel.String()},
					{Key: "enum", Val: kc.global},
					{Key: "source", Val: src},
				}
				tr.cx.emit(r)
			}
		}
		if ec != nil {
			ct.Elem = ir.TIdx
		}
	}
	for v := range tr.owner {
		v.Type = ir.TIdx
	}
}

// enumImpl picks the dense implementation for an enumerated site:
// directive select wins, then observed occupancy when a profile
// matched (profileguided.go), then the option defaults (§III-H).
func (tr *transformer) enumImpl(s *site, kc *classInfo, ct *ir.CollType) collections.Impl {
	if s.dir != nil && s.dir.Select != collections.ImplNone {
		return s.dir.Select
	}
	if impl, ok := tr.profileImpl(s, kc, ct); ok {
		return impl
	}
	if ct.Kind == ir.KMap {
		if tr.opts.MapImpl != collections.ImplNone {
			return tr.opts.MapImpl
		}
		return collections.ImplBitMap
	}
	if tr.opts.SetImpl != collections.ImplNone {
		return tr.opts.SetImpl
	}
	return collections.ImplBitSet
}

func copyCollType(t *ir.CollType) *ir.CollType {
	if t == nil {
		return nil
	}
	ct := *t
	if inner := ir.AsColl(t.Elem); inner != nil {
		ct.Elem = copyCollType(inner)
	}
	if inner := ir.AsColl(t.Key); inner != nil {
		ct.Key = copyCollType(inner)
	}
	return &ct
}

// loadEnums prepends one enumglobal load per class used in the
// function.
func (tr *transformer) loadEnums(classes []*classInfo) {
	var loads []ir.Node
	for _, ci := range classes {
		in := &ir.Instr{Op: ir.OpEnumGlobal, Callee: ci.global}
		v := &ir.Value{
			Name: tr.fi.fn.NewValueName("e_" + ci.global), Type: ir.EnumOf(ci.domain),
			Kind: ir.VResult, Def: in,
		}
		in.Results = []*ir.Value{v}
		tr.enumVal[ci] = v
		loads = append(loads, in)
	}
	tr.fi.fn.Body.Nodes = append(loads, tr.fi.fn.Body.Nodes...)
}

func (tr *transformer) newName(prefix string) string {
	tr.nameID++
	return fmt.Sprintf("%s.ade%d", prefix, tr.nameID)
}

func (tr *transformer) mkEnc(ci *classInfo, v *ir.Value) (*ir.Instr, *ir.Value) {
	in := &ir.Instr{Op: ir.OpEncode, Args: []ir.Operand{ir.Op(tr.enumVal[ci]), ir.Op(v)}}
	r := &ir.Value{Name: tr.newName("id"), Type: ir.TIdx, Kind: ir.VResult, Def: in}
	in.Results = []*ir.Value{r}
	return in, r
}

func (tr *transformer) mkAdd(ci *classInfo, v *ir.Value) (*ir.Instr, *ir.Value) {
	in := &ir.Instr{Op: ir.OpEnumAdd, Args: []ir.Operand{ir.Op(tr.enumVal[ci]), ir.Op(v)}}
	e := &ir.Value{Name: tr.newName("e"), Type: tr.enumVal[ci].Type, Kind: ir.VResult, Def: in}
	r := &ir.Value{Name: tr.newName("id"), Type: ir.TIdx, Kind: ir.VResult, Def: in, ResIdx: 1}
	in.Results = []*ir.Value{e, r}
	return in, r
}

func (tr *transformer) mkDec(ci *classInfo, id *ir.Value) (*ir.Instr, *ir.Value) {
	in := &ir.Instr{Op: ir.OpDecode, Args: []ir.Operand{ir.Op(tr.enumVal[ci]), ir.Op(id)}}
	r := &ir.Value{Name: tr.newName("v"), Type: ci.domain, Kind: ir.VResult, Def: in}
	in.Results = []*ir.Value{r}
	return in, r
}

// insertAfterDef schedules ins to run immediately after v's
// definition: after the defining instruction, at the start of the loop
// body for for-each bindings and header phis, after the construct for
// exit phis, and at function entry for parameters and constants.
func (tr *transformer) insertAfterDef(v *ir.Value, ins ...*ir.Instr) error {
	if v.Kind == ir.VConst || v.Kind == ir.VParam {
		if fe, ok := tr.loopOfBinding[v]; ok {
			tr.atStart[fe.Body] = append(tr.atStart[fe.Body], ins...)
			return nil
		}
		tr.entry = append(tr.entry, ins...)
		return nil
	}
	def := v.Def
	if def == nil {
		return fmt.Errorf("ade: value %v has no definition", v)
	}
	if def.Op != ir.OpPhi {
		tr.after[def] = append(tr.after[def], ins...)
		return nil
	}
	loc, ok := tr.phiLoc[def]
	if !ok {
		return fmt.Errorf("ade: phi %v has no structural location", v)
	}
	switch loc.role {
	case ir.PhiLoopHeader:
		tr.atStart[loopBody(loc.loop)] = append(tr.atStart[loopBody(loc.loop)], ins...)
	case ir.PhiIfExit:
		tr.after[loc.ifNode] = append(tr.after[loc.ifNode], ins...)
	case ir.PhiLoopExit:
		tr.after[loc.loop] = append(tr.after[loc.loop], ins...)
	}
	return nil
}

// insertAtEdge schedules ins at the control-flow edge feeding phi
// argument argIdx.
func (tr *transformer) insertAtEdge(phi *ir.Instr, argIdx int, ins ...*ir.Instr) error {
	loc, ok := tr.phiLoc[phi]
	if !ok {
		return fmt.Errorf("ade: phi %v has no structural location", phi.Result())
	}
	switch loc.role {
	case ir.PhiIfExit:
		blk := loc.ifNode.Then
		if argIdx == 1 {
			blk = loc.ifNode.Else
		}
		tr.atEnd[blk] = append(tr.atEnd[blk], ins...)
	case ir.PhiLoopHeader:
		if argIdx == 0 {
			tr.before[loc.loop] = append(tr.before[loc.loop], ins...)
		} else {
			tr.atEnd[loopBody(loc.loop)] = append(tr.atEnd[loopBody(loc.loop)], ins...)
		}
	case ir.PhiLoopExit:
		tr.atEnd[loopBody(loc.loop)] = append(tr.atEnd[loopBody(loc.loop)], ins...)
	default:
		return fmt.Errorf("ade: cannot place translation for phi %v", phi.Result())
	}
	return nil
}

func loopBody(n ir.Node) *ir.Block {
	switch n := n.(type) {
	case *ir.ForEach:
		return n.Body
	case *ir.DoWhile:
		return n.Body
	}
	return nil
}

// idOf returns the hoisted identifier for (v, ci), creating the
// translation after v's definition on first demand. add selects @add
// over @enc; once a position needs @add the cached translation is
// upgraded.
func (tr *transformer) idOf(ci *classInfo, v *ir.Value, add bool) (*ir.Value, error) {
	k := hoistKey{v: v, ci: ci}
	if id, ok := tr.encCache[k]; ok {
		if add && id.Def != nil && id.Def.Op == ir.OpEncode {
			// Upgrade the cached enc to add in place.
			id.Def.Op = ir.OpEnumAdd
			e := &ir.Value{Name: tr.newName("e"), Type: tr.enumVal[ci].Type, Kind: ir.VResult, Def: id.Def}
			id.ResIdx = 1
			id.Def.Results = []*ir.Value{e, id}
		}
		return id, nil
	}
	src := v
	var ins []*ir.Instr
	if vo := tr.ownerOf(v); vo != nil && vo != ci {
		// Identifier of another class: decode first.
		dv, decIns, err := tr.valueOf(vo, v)
		if err != nil {
			return nil, err
		}
		ins = append(ins, decIns...)
		src = dv
	}
	var tin *ir.Instr
	var id *ir.Value
	if add {
		tin, id = tr.mkAdd(ci, src)
	} else {
		tin, id = tr.mkEnc(ci, src)
	}
	ins = append(ins, tin)
	if err := tr.insertAfterDef(v, ins...); err != nil {
		return nil, err
	}
	tr.encCache[k] = id
	return id, nil
}

// valueOf returns the hoisted decode of identifier v, creating it on
// first demand. The instructions are returned when the caller embeds
// them in a larger insertion; when instrs is nil the decode is already
// placed.
func (tr *transformer) valueOf(ci *classInfo, v *ir.Value) (*ir.Value, []*ir.Instr, error) {
	k := hoistKey{v: v, ci: ci}
	if dv, ok := tr.decCache[k]; ok {
		return dv, nil, nil
	}
	dec, dv := tr.mkDec(ci, v)
	if err := tr.insertAfterDef(v, dec); err != nil {
		return nil, nil, err
	}
	tr.decCache[k] = dv
	return dv, nil, nil
}

// patch rewrites every use per the RTE-aware rules.
func (tr *transformer) patch() error {
	// 1. Wants-id positions.
	for _, pp := range tr.wantsOrder {
		ci := tr.wants[pp]
		v := pp.value()
		if v == nil {
			continue
		}
		vOwner := tr.ownerOf(v)
		if vOwner == ci && tr.opts.RTE && tr.cx.fuel.take() {
			// enc∘dec / add∘dec elided (Algorithm 2).
			rule := "enc-of-dec"
			if tr.wantsAdd[pp] {
				rule = "add-of-dec"
			}
			tr.emitRTE(rule, ci, ppLine(pp), "%"+v.Name)
			continue
		}
		if vOwner == ci {
			// Ablation (or out of fuel): decode then re-translate, per
			// use position.
			dec, dv := tr.mkDec(ci, v)
			var tin *ir.Instr
			var id *ir.Value
			if tr.wantsAdd[pp] {
				tin, id = tr.mkAdd(ci, dv)
			} else {
				tin, id = tr.mkEnc(ci, dv)
			}
			if err := tr.insertBeforePoint(pp, dec, tin); err != nil {
				return err
			}
			pp.setValue(id)
			continue
		}
		id, err := tr.idOf(ci, v, tr.wantsAdd[pp])
		if err != nil {
			return err
		}
		pp.setValue(id)
	}

	// 2. Identifier-valued values at plain positions: decode.
	var ownedVals []*ir.Value
	for v := range tr.owner {
		ownedVals = append(ownedVals, v)
	}
	sort.Slice(ownedVals, func(i, j int) bool { return ownedVals[i].Name < ownedVals[j].Name })
	for _, v := range ownedVals {
		ci := tr.owner[v]
		for _, u := range tr.fi.ui.Uses(v) {
			pp, ok := ppFromUse(u)
			if !ok {
				continue
			}
			if pp.value() != v {
				continue // already rewritten by the wants-id pass
			}
			if tr.wants[pp] != nil {
				continue // handled above
			}
			in := u.Instr
			if in != nil && u.IsBase() {
				switch in.Op {
				case ir.OpPhi, ir.OpSelect:
					res := in.Result()
					if tr.ownerOf(res) == ci && (in.Op == ir.OpPhi || u.Arg != 0) {
						continue // identifier flows through
					}
					if in.Op == ir.OpPhi {
						// Value-typed phi fed by an identifier: decode
						// at the edge.
						dec, dv := tr.mkDec(ci, v)
						if err := tr.insertAtEdge(in, u.Arg, dec); err != nil {
							return err
						}
						in.Args[u.Arg].Base = dv
						continue
					}
				case ir.OpCmp:
					if tr.opts.RTE && (in.Cmp == ir.CmpEq || in.Cmp == ir.CmpNe) {
						other := in.Args[1-u.Arg].Base
						if tr.ownerOf(other) == ci && tr.cx.fuel.take() {
							// Identifier equality (injectivity). Out of
							// fuel, fall through to the generic decode —
							// value equality agrees with identifier
							// equality by injectivity.
							tr.emitRTE("id-equality", ci, in.Pos, "%"+v.Name, "%"+other.Name)
							continue
						}
					}
				case ir.OpDecode, ir.OpEncode, ir.OpEnumAdd:
					continue // translations we inserted
				}
			}
			dv, _, err := tr.valueOf(ci, v)
			if err != nil {
				return err
			}
			pp.setValue(dv)
		}
	}

	// 3. Identifier-valued phis and selects with plain inputs: coerce
	//    the inputs with @add at their edges.
	for _, v := range ownedVals {
		ci := tr.owner[v]
		in := v.Def
		if in == nil || (in.Op != ir.OpPhi && in.Op != ir.OpSelect) {
			continue
		}
		start := 0
		if in.Op == ir.OpSelect {
			start = 1
		}
		for ai := start; ai < len(in.Args); ai++ {
			av := in.Args[ai].Base
			if av == nil || tr.ownerOf(av) == ci {
				continue
			}
			// av was possibly rewritten by pass 2? Pass 2 skips args of
			// id-owned phis, so av is the original plain (or foreign)
			// value.
			var ins []*ir.Instr
			src := av
			if ao := tr.ownerOf(av); ao != nil {
				dec, dv := tr.mkDec(ao, av)
				ins = append(ins, dec)
				src = dv
			}
			add, id := tr.mkAdd(ci, src)
			ins = append(ins, add)
			if in.Op == ir.OpPhi {
				if err := tr.insertAtEdge(in, ai, ins...); err != nil {
					return err
				}
			} else {
				if err := tr.insertBeforePoint(patchPoint{instr: in, arg: ai, path: -1}, ins...); err != nil {
					return err
				}
			}
			in.Args[ai].Base = id
		}
	}
	return nil
}

// ppLine resolves the `.mir` line of a patch point's user.
func ppLine(pp patchPoint) int {
	if pp.instr != nil {
		return pp.instr.Pos
	}
	return 0
}

// emitRTE records one redundant-translation-elimination firing with
// its rule name and operands.
func (tr *transformer) emitRTE(rule string, ci *classInfo, line int, operands ...string) {
	if !tr.cx.remarksOn() {
		return
	}
	tr.cx.emit(remarks.Remark{
		Code: remarks.CodeRTEElide, Pass: "rte",
		Fn:      tr.fi.fn.Name,
		Site:    ci.global,
		Line:    line,
		Message: "redundant translation elided",
		Args: []remarks.Arg{
			{Key: "rule", Val: rule},
			{Key: "operands", Val: strings.Join(operands, ",")},
		},
	})
}

// insertBeforePoint places instructions immediately before a use
// position (plain instructions and for-each collection operands only).
func (tr *transformer) insertBeforePoint(pp patchPoint, ins ...*ir.Instr) error {
	if pp.loop != nil {
		tr.before[pp.loop] = append(tr.before[pp.loop], ins...)
		return nil
	}
	if pp.instr.Op == ir.OpPhi {
		return tr.insertAtEdge(pp.instr, pp.arg, ins...)
	}
	tr.before[pp.instr] = append(tr.before[pp.instr], ins...)
	return nil
}

// ownerOf is owner lookup with constants always plain.
func (tr *transformer) ownerOf(v *ir.Value) *classInfo {
	if v == nil || v.Kind == ir.VConst {
		return nil
	}
	return tr.owner[v]
}

// flushInsertions materializes the scheduled instruction insertions.
func (tr *transformer) flushInsertions() {
	root := tr.fi.fn.Body
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		var out []ir.Node
		if b == root {
			// Entry insertions come after the enumglobal loads, which
			// are the leading OpEnumGlobal instructions.
			i := 0
			for ; i < len(b.Nodes); i++ {
				in, ok := b.Nodes[i].(*ir.Instr)
				if !ok || in.Op != ir.OpEnumGlobal {
					break
				}
				out = append(out, b.Nodes[i])
			}
			for _, in := range tr.entry {
				out = append(out, in)
			}
			b.Nodes = b.Nodes[i:]
		}
		for _, in := range tr.atStart[b] {
			out = append(out, in)
		}
		for _, n := range b.Nodes {
			for _, in := range tr.before[n] {
				out = append(out, in)
			}
			out = append(out, n)
			for _, in := range tr.after[n] {
				out = append(out, in)
			}
			switch n := n.(type) {
			case *ir.If:
				walk(n.Then)
				walk(n.Else)
			case *ir.ForEach:
				walk(n.Body)
			case *ir.DoWhile:
				walk(n.Body)
			}
		}
		for _, in := range tr.atEnd[b] {
			out = append(out, in)
		}
		b.Nodes = out
	}
	walk(root)
}
