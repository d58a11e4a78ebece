package server

import (
	"errors"
	"net/http"

	"memoir/internal/interp"
	"memoir/internal/pipeline"
)

// Stable machine-readable error codes. These are a wire format:
// append-only, never renamed. Clients branch on Code; the HTTP status
// is the coarse transport-level mirror.
const (
	// Request-shape problems (the untrusted decode surface).
	CodeBadRequest   = "bad-request"    // 400: malformed JSON, bad field values
	CodeBodyTooLarge = "body-too-large" // 413: request body over the configured cap
	CodeParseError   = "parse-error"    // 400: .mir text rejected by the parser
	CodeVerifyError  = "verify-error"   // 400: program failed IR verification
	CodeUnknownEntry = "unknown-entry"  // 400: entry function not in the program

	// Compile-time failures.
	CodeADEError = "ade-error" // 422: ADE pipeline failed (un-sandboxed pass panic / injected fault)

	// Budget interruptions — the interp/errors.go taxonomy, one code
	// per sentinel so interrupted runs are machine-distinguishable.
	CodeStepBudget   = "step-budget"   // 429: interp.ErrStepBudget
	CodeMemBudget    = "mem-budget"    // 429: interp.ErrMemBudget
	CodeDeadline     = "deadline"      // 408: interp.ErrDeadline
	CodeRuntimePanic = "runtime-panic" // 422: interp.ErrRuntimePanic (engine-contained panic, incl. injected faults)

	// Other guest-program runtime failures (div-zero, bad call, ...).
	CodeRuntimeError = "runtime-error" // 422

	// Server-side conditions.
	CodeOverloaded = "overloaded"     // 503: worker pool queue full
	CodeShutdown   = "shutting-down"  // 503: daemon draining
	CodeInternal   = "internal-error" // 500: server bug (post-ADE verify/compile failure)
	CodePanic      = "internal-panic" // 500: worker recovered a server-side panic

	// Self-protection: the program hash is circuit-broken after
	// repeated panics or budget blowouts. The response carries
	// retryAfterMs (and a Retry-After header) naming when the next
	// half-open probe becomes possible.
	CodeQuarantined = "quarantined" // 422
)

// APIError is the structured error body every non-2xx response
// carries (inside Response.Error).
type APIError struct {
	Code    string `json:"code"`
	Status  int    `json:"httpStatus"`
	Message string `json:"message"`
	// Fn and Steps localize budget interruptions: the function
	// executing at the interruption and the global step count reached
	// (from interp.LimitError). Bytes is the live footprint for
	// mem-budget stops.
	Fn    string `json:"fn,omitempty"`
	Steps uint64 `json:"steps,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	// RetryAfterMs accompanies `quarantined` rejections: the interval
	// until the breaker's next half-open probe.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

func apiErr(code string, status int, msg string) *APIError {
	return &APIError{Code: code, Status: status, Message: msg}
}

// mapCompileError classifies a compile-pipeline failure by the stage
// that failed: a program the client can fix is a 400, a program ADE
// rejects is a 422, and any failure after ADE is a compiler bug.
//
//	parse, verify → 400 parse-error / verify-error
//	ade           → 422 ade-error
//	anything else → 500 internal-error
func mapCompileError(err error) *APIError {
	var pe *pipeline.Error
	if !errors.As(err, &pe) {
		return apiErr(CodeInternal, http.StatusInternalServerError, err.Error())
	}
	switch pe.Stage {
	case pipeline.StageParse:
		return apiErr(CodeParseError, http.StatusBadRequest, pe.Err.Error())
	case pipeline.StageVerify:
		return apiErr(CodeVerifyError, http.StatusBadRequest, pe.Err.Error())
	case pipeline.StageADE:
		return apiErr(CodeADEError, http.StatusUnprocessableEntity, pe.Err.Error())
	}
	return apiErr(CodeInternal, http.StatusInternalServerError, pe.Error())
}

// MapRunError classifies an execution error from either engine into
// the stable code + HTTP status. The mapping is total: anything not
// recognized as a budget interruption or engine-contained panic is a
// guest runtime error.
//
//	ErrStepBudget   → 429 step-budget   (compute quota exhausted; retryable with a bigger budget)
//	ErrMemBudget    → 429 mem-budget    (memory quota exhausted)
//	ErrDeadline     → 408 deadline      (wall-clock deadline expired)
//	ErrRuntimePanic → 422 runtime-panic (program crashed the engine; contained)
//	anything else   → 422 runtime-error
//
// Both engines return the same *interp.LimitError values from the
// same dynamic points (PR 5), so the mapping is engine-agnostic by
// construction; internal/vm/budget_test.go pins that parity.
func MapRunError(err error) *APIError {
	var le *interp.LimitError
	if errors.As(err, &le) {
		out := &APIError{Message: err.Error(), Fn: le.Fn, Steps: le.Steps}
		switch {
		case errors.Is(err, interp.ErrStepBudget):
			out.Code, out.Status = CodeStepBudget, http.StatusTooManyRequests
		case errors.Is(err, interp.ErrMemBudget):
			out.Code, out.Status = CodeMemBudget, http.StatusTooManyRequests
			out.Bytes = le.Bytes
		case errors.Is(err, interp.ErrDeadline):
			out.Code, out.Status = CodeDeadline, http.StatusRequestTimeout
		case errors.Is(err, interp.ErrRuntimePanic):
			out.Code, out.Status = CodeRuntimePanic, http.StatusUnprocessableEntity
		default:
			out.Code, out.Status = CodeRuntimeError, http.StatusUnprocessableEntity
		}
		return out
	}
	return apiErr(CodeRuntimeError, http.StatusUnprocessableEntity, err.Error())
}
