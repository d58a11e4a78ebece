package bench

import (
	"fmt"

	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
	"memoir/internal/vm"
)

// Engine selects the execution engine: the tree-walking interpreter
// (the reference oracle that differential tests check the VM against)
// or the bytecode register VM (the engine every figure, gate, report
// and CLI runs on). Both produce identical deterministic op counts,
// memory peaks and output checksums; the VM only changes wall-clock
// time.
type Engine int

const (
	EngineInterp Engine = iota
	EngineVM
)

func (e Engine) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EngineVM:
		return "vm"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Engines lists all engines, for matrix-style iteration.
func Engines() []Engine { return []Engine{EngineInterp, EngineVM} }

// Allocator is the part of an engine that benchmark input builders
// need: materializing input collections registered with the engine's
// memory model. The runtime both engines embed implements it.
type Allocator interface {
	NewColl(*ir.CollType) interp.Coll
}

// Machine is a ready-to-run engine instance for one program: the
// engine's Run plus the runtime it embeds, which holds the whole
// measurement surface (Stats, ROIStats, Output, Wall, FinalizeMem) and
// is the Allocator the input builders use.
type Machine struct {
	*interp.Runtime
	Run func(name string, args ...interp.Val) (interp.Val, error)
}

// NewMachine instantiates the chosen engine for prog. For the VM this
// compiles the program to verified bytecode first.
func NewMachine(prog *ir.Program, opts interp.Options, eng Engine) (*Machine, error) {
	switch eng {
	case EngineInterp:
		ip := interp.New(prog, opts)
		return &Machine{&ip.Runtime, ip.Run}, nil
	case EngineVM:
		bc, err := pipeline.Compile(prog)
		if err != nil {
			return nil, err
		}
		m := vm.New(bc, opts)
		return &Machine{&m.Runtime, m.Run}, nil
	}
	return nil, fmt.Errorf("unknown engine %v", eng)
}
