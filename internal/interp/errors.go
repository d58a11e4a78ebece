package interp

import (
	"errors"
	"fmt"
)

// Structured error taxonomy for interrupted executions. Both engines
// return the same *LimitError values from the same dynamic points, so
// a budget-exhausted run carries an engine-identical diagnostic and
// partial Stats/telemetry surface. Callers classify with errors.Is
// against the sentinels below and recover the site details by
// errors.As-ing to *LimitError.
var (
	// ErrStepBudget: Options.MaxSteps was exhausted.
	ErrStepBudget = errors.New("step budget exceeded")
	// ErrMemBudget: the sampled live footprint exceeded Options.MaxBytes.
	ErrMemBudget = errors.New("memory budget exceeded")
	// ErrDeadline: Options.Context was cancelled or timed out.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrRuntimePanic: the engine recovered a Go panic (an engine bug
	// or an injected fault) at the Run boundary.
	ErrRuntimePanic = errors.New("runtime panic")
)

// LimitError is the structured error both engines return when an
// execution is interrupted: the sentinel kind, the function executing
// at the point of interruption, the global step count reached, and —
// for memory budgets — the live footprint that tripped the budget.
type LimitError struct {
	Kind  error  // one of the sentinels above
	Fn    string // function executing at the interruption
	Steps uint64 // global step count at the interruption
	Bytes int64  // sampled live bytes (ErrMemBudget only)
	Msg   string // recovered panic value (ErrRuntimePanic only)
}

func (e *LimitError) Error() string {
	switch e.Kind {
	case ErrStepBudget:
		// Keep the historical diagnostic byte-for-byte: the engine
		// parity tests compare error strings across engines.
		return "@" + e.Fn + ": step budget exceeded"
	case ErrMemBudget:
		return fmt.Sprintf("@%s: memory budget exceeded (live %d bytes)", e.Fn, e.Bytes)
	case ErrDeadline:
		return "@" + e.Fn + ": deadline exceeded"
	case ErrRuntimePanic:
		return "@" + e.Fn + ": runtime panic: " + e.Msg
	}
	return "@" + e.Fn + ": " + e.Msg
}

// Unwrap exposes the sentinel so errors.Is(err, ErrStepBudget) works.
func (e *LimitError) Unwrap() error { return e.Kind }
