// Package pipeline is the one place the compiler's stages run in
// order: parse, the ADE pass of §III, and lowering to bytecode. Each
// function here pairs a producing stage with the verifier of its
// output, so every caller — the façade, the CLIs, the benchmark
// harness, the differential tester and the serving daemon — gets only
// verified IR and verified bytecode.
//
// Every error these functions return is an *Error naming the stage
// that failed.
package pipeline

import (
	"memoir/internal/bytecode"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/parser"
)

// Stage names one step of the pipeline.
type Stage string

const (
	StageParse          Stage = "parse"
	StageVerify         Stage = "verify"
	StageADE            Stage = "ade"
	StageVerifyADE      Stage = "verify after ADE"
	StageBytecode       Stage = "bytecode"
	StageVerifyBytecode Stage = "bytecode verify"
)

// Error is a failure of one pipeline stage.
type Error struct {
	Stage Stage
	Err   error
}

func (e *Error) Error() string { return string(e.Stage) + ": " + e.Err.Error() }

func (e *Error) Unwrap() error { return e.Err }

// Parse reads a textual MEMOIR program and verifies it.
func Parse(text string) (*ir.Program, error) {
	prog, err := parser.Parse(text)
	if err != nil {
		return nil, &Error{StageParse, err}
	}
	if err := ir.Verify(prog); err != nil {
		return nil, &Error{StageVerify, err}
	}
	return prog, nil
}

// Transform applies Automatic Data Enumeration to prog in place and
// verifies the result. The report is returned whenever core.Apply
// produced one, including when the verifier then rejects the program.
func Transform(prog *ir.Program, opts core.Options) (*core.Report, error) {
	rep, err := core.Apply(prog, opts)
	if err != nil {
		return rep, &Error{StageADE, err}
	}
	if err := ir.Verify(prog); err != nil {
		return rep, &Error{StageVerifyADE, err}
	}
	return rep, nil
}

// Compile lowers prog to bytecode and verifies it, so a compile bug
// surfaces as a positioned error instead of a crash or a wrong answer
// at run time.
func Compile(prog *ir.Program) (*bytecode.Prog, error) {
	bc, err := bytecode.Compile(prog)
	if err != nil {
		return nil, &Error{StageBytecode, err}
	}
	if err := bytecode.Verify(bc); err != nil {
		return nil, &Error{StageVerifyBytecode, err}
	}
	return bc, nil
}
