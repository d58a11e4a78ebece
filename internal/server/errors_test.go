package server

import (
	"errors"
	"net/http"
	"testing"

	"memoir/internal/pipeline"
)

// TestCompileErrorMapping pins the wire code and HTTP status of every
// compile-pipeline stage failure, including the post-ADE stages no
// well-formed request reaches.
func TestCompileErrorMapping(t *testing.T) {
	cause := errors.New("boom")
	for _, tc := range []struct {
		stage  pipeline.Stage
		code   string
		status int
		msg    string
	}{
		{pipeline.StageParse, CodeParseError, http.StatusBadRequest, "boom"},
		{pipeline.StageVerify, CodeVerifyError, http.StatusBadRequest, "boom"},
		{pipeline.StageADE, CodeADEError, http.StatusUnprocessableEntity, "boom"},
		{pipeline.StageVerifyADE, CodeInternal, http.StatusInternalServerError, "verify after ADE: boom"},
		{pipeline.StageBytecode, CodeInternal, http.StatusInternalServerError, "bytecode: boom"},
		{pipeline.StageVerifyBytecode, CodeInternal, http.StatusInternalServerError, "bytecode verify: boom"},
	} {
		got := mapCompileError(&pipeline.Error{Stage: tc.stage, Err: cause})
		if got.Code != tc.code || got.Status != tc.status || got.Message != tc.msg {
			t.Errorf("%s: got %d %s %q, want %d %s %q", tc.stage, got.Status, got.Code, got.Message, tc.status, tc.code, tc.msg)
		}
	}
}
