package server

import (
	"encoding/json"

	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/faults"
)

// Request is the wire format of POST /v1/compile and /v1/run. The
// decoder is an untrusted surface: every field is capped and
// validated before any of it reaches the compiler, and the whole body
// is size-limited by Config.MaxBodyBytes before JSON decoding starts.
type Request struct {
	// Program is the .mir source text.
	Program string `json:"program"`
	// Engine names the execution engine. adeserved runs every request
	// on the bytecode VM: "" and "vm" are accepted, anything else is a
	// bad-request. The field stays for wire compatibility.
	Engine string `json:"engine,omitempty"`
	// Entry is the function to run (default "main").
	Entry string `json:"entry,omitempty"`
	// Args are u64 scalar arguments for the entry function.
	Args []uint64 `json:"args,omitempty"`
	// ADE applies the full pipeline before execution; defaults to
	// true (nil).
	ADE *bool `json:"ade,omitempty"`
	// Options ablates/retargets the ADE pipeline (all optional).
	Options *ADEOptions `json:"options,omitempty"`

	// Per-request QoS budgets. Zero means "server default"; values
	// above the server ceiling are clamped down to it.
	MaxSteps    uint64 `json:"maxSteps,omitempty"`
	MaxMemBytes int64  `json:"maxMemBytes,omitempty"`
	TimeoutMs   int64  `json:"timeoutMs,omitempty"`

	// Fault opts this request into deterministic fault injection (a
	// PR-5 registry point name, e.g. "alloc-fail:1"). Faulted
	// requests bypass the cache: injectors are single-run state.
	Fault string `json:"fault,omitempty"`
	// Telemetry requests per-site runtime telemetry in the response.
	Telemetry bool `json:"telemetry,omitempty"`
	// NoCache bypasses the compiled-artifact cache (for measurement).
	NoCache bool `json:"noCache,omitempty"`
}

// ADEOptions is the request-settable subset of core.Options.
type ADEOptions struct {
	RTE         *bool  `json:"rte,omitempty"`
	Propagation *bool  `json:"propagation,omitempty"`
	Sharing     *bool  `json:"sharing,omitempty"`
	SetImpl     string `json:"setImpl,omitempty"`
	MapImpl     string `json:"mapImpl,omitempty"`
	ForceAll    bool   `json:"forceAll,omitempty"`
}

// Response is the wire format of /v1/compile and /v1/run replies.
type Response struct {
	ID string `json:"id"`
	OK bool   `json:"ok"`
	// Error is set on failures, with the stable code taxonomy.
	Error *APIError `json:"error,omitempty"`

	// Cache describes how the artifact was obtained.
	Cache *CacheInfo `json:"cache,omitempty"`
	// Phases records which pipeline phases actually ran for this
	// request; a hot-cache run shows all false.
	Phases *PhaseInfo `json:"phases,omitempty"`

	// Compile-side results.
	Degraded []string `json:"degraded,omitempty"` // sandboxed sub-passes rolled back
	Classes  int      `json:"classes,omitempty"`  // enumeration classes formed

	// Run-side results (absent for /v1/compile). Engine is always "vm".
	Engine string     `json:"engine,omitempty"`
	Result string     `json:"result,omitempty"`
	Output *OutputSum `json:"output,omitempty"`
	Stats  *RunStats  `json:"stats,omitempty"`
	// Partial marks budget-interrupted runs whose Stats are the
	// engine-identical partial tallies up to the interruption.
	Partial bool    `json:"partial,omitempty"`
	WallMs  float64 `json:"wallMs,omitempty"`
	// Telemetry is the per-site summary when requested.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

// CacheInfo reports the cache interaction of one request.
type CacheInfo struct {
	Hit bool   `json:"hit"`
	Key string `json:"key"` // "<program-hash>|<options-fingerprint>"
	// Disk marks hits satisfied from the durable artifact store: the
	// in-memory cache missed, but the artifact was re-materialized
	// from disk without re-running ADE.
	Disk bool `json:"disk,omitempty"`
}

// PhaseInfo reports which phases ran (the per-request view of the
// server's cumulative phase counters exposed by /v1/stats).
type PhaseInfo struct {
	Parsed   bool `json:"parsed"`
	ADE      bool `json:"ade"`
	Compiled bool `json:"compiled"`
}

// OutputSum is the order-insensitive emitted-output summary.
type OutputSum struct {
	Count    uint64 `json:"count"`
	Checksum uint64 `json:"checksum"`
}

// RunStats is the JSON projection of interp.Stats.
type RunStats struct {
	Steps     uint64 `json:"steps"`
	Sparse    uint64 `json:"sparse"`
	Dense     uint64 `json:"dense"`
	PeakBytes int64  `json:"peakBytes"`
}

// Decode limits. Program size is capped separately (and lower) than
// the raw body so a JSON request can't smuggle a huge program inside
// a body that squeaks under the transport cap.
const (
	maxArgs     = 64
	maxEntryLen = 128
	maxFaultLen = 64
)

// DecodeRequest parses and validates a request body. contentType
// routes between the JSON format and the raw-.mir convenience format
// (any text/* or application/x-mir body is the program itself, with
// options taken from query parameters). The returned *APIError is
// ready to serialize.
func DecodeRequest(body []byte, contentType string, query map[string][]string, maxProgram int) (*Request, *APIError) {
	mt := contentType
	if mt != "" {
		if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
			mt = parsed
		}
	}
	var req *Request
	if strings.HasPrefix(mt, "text/") || mt == "application/x-mir" {
		r, aerr := requestFromQuery(string(body), query)
		if aerr != nil {
			return nil, aerr
		}
		req = r
	} else {
		req = &Request{}
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return nil, apiErr(CodeBadRequest, http.StatusBadRequest, "invalid JSON: "+err.Error())
		}
		// Trailing garbage after the JSON document is rejected too.
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			return nil, apiErr(CodeBadRequest, http.StatusBadRequest, "trailing data after JSON body")
		}
	}
	if aerr := validateRequest(req, maxProgram); aerr != nil {
		return nil, aerr
	}
	return req, nil
}

// requestFromQuery builds a Request for a raw .mir body from URL
// query parameters (engine, entry, args, ade, max-steps, max-mem,
// timeout-ms, fault, telemetry, no-cache).
func requestFromQuery(program string, query map[string][]string) (*Request, *APIError) {
	get := func(k string) string {
		if vs := query[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	req := &Request{Program: program, Engine: get("engine"), Entry: get("entry"), Fault: get("fault")}
	if v := get("ade"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, apiErr(CodeBadRequest, http.StatusBadRequest, "bad ade parameter: "+v)
		}
		req.ADE = &b
	}
	if v := get("args"); v != "" {
		for _, a := range strings.Split(v, ",") {
			x, err := strconv.ParseUint(strings.TrimSpace(a), 10, 64)
			if err != nil {
				return nil, apiErr(CodeBadRequest, http.StatusBadRequest, "bad args parameter: "+a)
			}
			req.Args = append(req.Args, x)
		}
	}
	for k, dst := range map[string]*uint64{"max-steps": &req.MaxSteps} {
		if v := get(k); v != "" {
			x, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, apiErr(CodeBadRequest, http.StatusBadRequest, "bad "+k+" parameter: "+v)
			}
			*dst = x
		}
	}
	for k, dst := range map[string]*int64{"max-mem": &req.MaxMemBytes, "timeout-ms": &req.TimeoutMs} {
		if v := get(k); v != "" {
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, apiErr(CodeBadRequest, http.StatusBadRequest, "bad "+k+" parameter: "+v)
			}
			*dst = x
		}
	}
	if v := get("telemetry"); v != "" {
		req.Telemetry, _ = strconv.ParseBool(v)
	}
	if v := get("no-cache"); v != "" {
		req.NoCache, _ = strconv.ParseBool(v)
	}
	return req, nil
}

func validateRequest(req *Request, maxProgram int) *APIError {
	if req.Program == "" {
		return apiErr(CodeBadRequest, http.StatusBadRequest, "empty program")
	}
	if maxProgram > 0 && len(req.Program) > maxProgram {
		return apiErr(CodeBodyTooLarge, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("program is %d bytes; cap is %d", len(req.Program), maxProgram))
	}
	if req.Engine != "" && req.Engine != "vm" {
		return apiErr(CodeBadRequest, http.StatusBadRequest, `unknown engine; adeserved runs on the VM (send "vm" or omit engine)`)
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	if len(req.Entry) > maxEntryLen {
		return apiErr(CodeBadRequest, http.StatusBadRequest, "entry name too long")
	}
	if len(req.Args) > maxArgs {
		return apiErr(CodeBadRequest, http.StatusBadRequest,
			fmt.Sprintf("too many args: %d (cap %d)", len(req.Args), maxArgs))
	}
	if len(req.Fault) > maxFaultLen {
		return apiErr(CodeBadRequest, http.StatusBadRequest, "fault name too long")
	}
	if req.Fault != "" {
		if _, err := faults.ByName(req.Fault); err != nil {
			return apiErr(CodeBadRequest, http.StatusBadRequest, err.Error())
		}
	}
	if req.MaxMemBytes < 0 || req.TimeoutMs < 0 {
		return apiErr(CodeBadRequest, http.StatusBadRequest, "negative budget")
	}
	if req.Options != nil {
		for _, sel := range []string{req.Options.SetImpl, req.Options.MapImpl} {
			if sel == "" {
				continue
			}
			if _, ok := collections.ParseImpl(sel); !ok {
				return apiErr(CodeBadRequest, http.StatusBadRequest, "unknown collection impl "+strconv.Quote(sel))
			}
		}
	}
	return nil
}

// wantADE reports whether the request asked for the ADE pipeline
// (the default).
func (r *Request) wantADE() bool { return r.ADE == nil || *r.ADE }

// coreOptions materializes the effective core.Options for a request.
// sandbox is the server-wide production posture (Config.Sandbox).
func (r *Request) coreOptions(sandbox bool) core.Options {
	o := core.DefaultOptions()
	o.Sandbox = sandbox
	if r.Options == nil {
		return o
	}
	if r.Options.RTE != nil {
		o.RTE = *r.Options.RTE
	}
	if r.Options.Propagation != nil {
		o.Propagation = *r.Options.Propagation
	}
	if r.Options.Sharing != nil {
		o.Sharing = *r.Options.Sharing
		if !o.Sharing {
			o.Propagation = false
		}
	}
	if r.Options.SetImpl != "" {
		if impl, ok := collections.ParseImpl(r.Options.SetImpl); ok {
			o.SetImpl = impl
		}
	}
	if r.Options.MapImpl != "" {
		if impl, ok := collections.ParseImpl(r.Options.MapImpl); ok {
			o.MapImpl = impl
		}
	}
	o.ForceAll = r.Options.ForceAll
	return o
}

// fingerprint is the options half of the cache key: the core
// fingerprint when ADE is on, a distinct marker when off.
func (r *Request) fingerprint(sandbox bool) string {
	if !r.wantADE() {
		return "ade=off"
	}
	return r.coreOptions(sandbox).Fingerprint()
}

// budgets resolves the effective per-request QoS budgets: the request
// value when given (clamped to the server ceiling), else the server
// default.
func (r *Request) budgets(cfg Config) (steps uint64, mem int64, timeout time.Duration) {
	steps = cfg.DefaultMaxSteps
	if r.MaxSteps > 0 {
		steps = r.MaxSteps
	}
	if cfg.CeilMaxSteps > 0 && (steps == 0 || steps > cfg.CeilMaxSteps) {
		steps = cfg.CeilMaxSteps
	}
	mem = cfg.DefaultMaxMem
	if r.MaxMemBytes > 0 {
		mem = r.MaxMemBytes
	}
	if cfg.CeilMaxMem > 0 && (mem == 0 || mem > cfg.CeilMaxMem) {
		mem = cfg.CeilMaxMem
	}
	timeout = cfg.DefaultTimeout
	if r.TimeoutMs > 0 {
		timeout = time.Duration(r.TimeoutMs) * time.Millisecond
	}
	if cfg.CeilTimeout > 0 && (timeout == 0 || timeout > cfg.CeilTimeout) {
		timeout = cfg.CeilTimeout
	}
	return steps, mem, timeout
}
