package bench

import (
	"fmt"
	"time"

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
// memory model.
type Allocator interface {
	NewColl(*ir.CollType) interp.Coll
}

// Machine is a ready-to-run execution engine instance for one program.
// Both engines expose the interpreter's full measurement surface.
type Machine interface {
	Allocator
	Run(name string, args ...interp.Val) (interp.Val, error)
	FinalizeMem()
	Stats() *interp.Stats
	ROIStats() *interp.Stats
	// ROITime returns the wall-clock time of the roi marker and whether
	// the marker executed.
	ROITime() (time.Time, bool)
	// RecordedOutput returns the emitted values when
	// Options.RecordOutput was set.
	RecordedOutput() []interp.Val
}

// NewMachine instantiates the chosen engine for prog. For the VM this
// compiles the program to verified bytecode first.
func NewMachine(prog *ir.Program, opts interp.Options, eng Engine) (Machine, error) {
	switch eng {
	case EngineInterp:
		return interpMachine{interp.New(prog, opts)}, nil
	case EngineVM:
		bc, err := pipeline.Compile(prog)
		if err != nil {
			return nil, err
		}
		return vmMachine{vm.New(bc, opts)}, nil
	}
	return nil, fmt.Errorf("unknown engine %v", eng)
}

type interpMachine struct{ *interp.Interp }

func (m interpMachine) Stats() *interp.Stats { return m.Interp.Stats }

func (m interpMachine) ROITime() (time.Time, bool) {
	return m.Interp.ROIStart, m.Interp.ROISnapshot != nil
}

func (m interpMachine) RecordedOutput() []interp.Val { return m.Interp.Output }

type vmMachine struct{ *vm.VM }

func (m vmMachine) Stats() *interp.Stats { return m.VM.Stats }

func (m vmMachine) ROITime() (time.Time, bool) {
	return m.VM.ROIStart, m.VM.ROISnapshot != nil
}

func (m vmMachine) RecordedOutput() []interp.Val { return m.VM.Output }
