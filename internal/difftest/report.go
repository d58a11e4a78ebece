package difftest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Schema identifies the report format; bump when fields change
// incompatibly so downstream tooling can refuse stale baselines.
// v2 added the execution-engine axis: per-entry "engine" fields and
// "op-counts" divergences between engine twins. v3 added the
// fault-injection sweep and fuel-bisected first-bad-rewrite indexes.
// v4 added the skeletal-enumeration sweep and reduced skeleton IDs. v5
// makes every sweep one cell loop: sources of any kind, one entry list
// keyed by source and fault with an outcome per cell, and divergences
// keyed by source with an optional reduced source.
const Schema = "adediff/v5"

// Report is the machine-readable result of one harness run
// (difftest-report.json).
type Report struct {
	Schema string `json:"schema"`
	// Scale is the benchmark input size; empty for skeleton and seed
	// sweeps.
	Scale   string   `json:"scale,omitempty"`
	Shard   string   `json:"shard"`
	Configs []string `json:"configs"`
	// Sources names the programs swept, in order.
	Sources []string `json:"sources"`
	// Faults names the injection points swept; empty without
	// injection.
	Faults []string `json:"faults,omitempty"`

	// Entries records every faulted cell and every failing cell. A
	// clean cell without a fault only counts in Cells, so an
	// exhaustive sweep's report stays small whatever its size.
	Entries     []Entry      `json:"entries,omitempty"`
	Divergences []Divergence `json:"divergences,omitempty"`

	// Summary counters, one per executed cell.
	Cells      int `json:"cells"`
	Diverged   int `json:"diverged"`
	ErrorCells int `json:"errorCells"`
	// Fault tallies by outcome. Unexpected must be zero for the run to
	// pass: every other outcome is a contained fault.
	RolledBack   int `json:"rolledBack"`
	Crashed      int `json:"crashed"`
	Degraded     int `json:"degraded"`
	NotTriggered int `json:"notTriggered"`
	Unexpected   int `json:"unexpected"`
}

// Cell outcomes. A cell without an injected fault is OutcomeOK,
// OutcomeDiverged or OutcomeError; a faulted cell takes one of the
// Fault* outcomes. Every Fault* outcome except FaultUnexpected is a
// contained fault; FaultUnexpected (a panic that escaped every
// recovery layer, or the sandbox returning an error it should have
// absorbed) fails the run.
const (
	OutcomeOK       = "ok"
	OutcomeDiverged = "diverged"
	OutcomeError    = "error"

	FaultRolledBack   = "rolled-back"
	FaultCrash        = "crash"
	FaultDegraded     = "degraded"
	FaultNotTriggered = "not-triggered"
	FaultUnexpected   = "unexpected"
)

// Entry is one (source, fault, config) cell: its outcome, the
// canonical output summary, the deterministic op counts and the
// enumeration translation-call counts from internal/interp's stats.
type Entry struct {
	Source string `json:"source"`
	Config string `json:"config"`
	// Engine is the execution engine the cell ran on ("interp" or
	// "vm"); both must produce identical counts.
	Engine string `json:"engine"`
	// Fault names the injected point; empty for an unfaulted cell.
	Fault string `json:"fault,omitempty"`
	// Outcome is one of the Outcome* or Fault* constants.
	Outcome string `json:"outcome"`
	// Detail is the error message, the engine-twin count drift, or how
	// a fault was contained.
	Detail string `json:"detail,omitempty"`
	// FirstBadRewrite, for a crashed or degraded faulted cell on an ADE
	// column, is the smallest rewrite count at which the fault's effect
	// appears: the first faulty rewrite. 0 means the program misbehaves
	// even untransformed.
	FirstBadRewrite *int `json:"firstBadRewrite,omitempty"`

	Ret       uint64 `json:"ret"`
	EmitSum   uint64 `json:"emitSum"`
	EmitCount uint64 `json:"emitCount"`

	Steps   uint64 `json:"steps"`
	CollOps uint64 `json:"collOps"`
	Sparse  uint64 `json:"sparse"`
	Dense   uint64 `json:"dense"`

	// Translation calls (@enc/@dec/@add) executed dynamically.
	Enc uint64 `json:"enc"`
	Dec uint64 `json:"dec"`
	Add uint64 `json:"add"`

	// EnumClasses is the number of enumeration equivalence classes the
	// ADE pass formed (0 for baselines).
	EnumClasses int `json:"enumClasses"`
}

// failed reports whether the cell diverged, errored, or shows an
// injected fault's effect: the cells that get a Divergence record,
// reduction and (when crashed or degraded) bisection.
func (e Entry) failed() bool {
	switch e.Outcome {
	case OutcomeDiverged, OutcomeError, FaultCrash, FaultDegraded, FaultUnexpected:
		return true
	}
	return false
}

// Divergence records one failing cell. Kind is the cell's outcome,
// except that a @vm cell whose op counts drift from its interpreter
// twin's has Kind "op-counts". A "crash" or "degraded" record is
// informative: an injected fault is supposed to be visible, so it never
// fails the run.
type Divergence struct {
	Source string `json:"source"`
	// Reduced, for a source with prefixes (a skeleton), is the smallest
	// prefix whose cell still fails — equal to Source when none does.
	// Either replays with adediff -enum-id.
	Reduced string `json:"reduced,omitempty"`
	Config  string `json:"config"`
	Kind    string `json:"kind"`
	Fault   string `json:"fault,omitempty"`
	// Detail is the cell's Entry.Detail.
	Detail          string `json:"detail,omitempty"`
	FirstBadRewrite *int   `json:"firstBadRewrite,omitempty"`

	WantRet       uint64 `json:"wantRet"`
	GotRet        uint64 `json:"gotRet"`
	WantEmitSum   uint64 `json:"wantEmitSum"`
	GotEmitSum    uint64 `json:"gotEmitSum"`
	WantEmitCount uint64 `json:"wantEmitCount"`
	GotEmitCount  uint64 `json:"gotEmitCount"`
}

// add counts one executed cell and keeps its entry unless it is a clean
// cell without a fault.
func (r *Report) add(e Entry) {
	r.Cells++
	switch e.Outcome {
	case OutcomeOK:
		return
	case OutcomeDiverged:
		r.Diverged++
	case OutcomeError:
		r.ErrorCells++
	case FaultRolledBack:
		r.RolledBack++
	case FaultCrash:
		r.Crashed++
	case FaultDegraded:
		r.Degraded++
	case FaultNotTriggered:
		r.NotTriggered++
	default:
		r.Unexpected++
	}
	r.Entries = append(r.Entries, e)
}

// OK reports whether the run found no divergences, no cell errors and
// no fault that escaped containment. Contained faults ("crash" and
// "degraded" outcomes) do not fail the run: an injected fault is
// supposed to be visible; what must never happen is an unrecovered
// panic.
func (r *Report) OK() bool {
	return r.Diverged == 0 && r.ErrorCells == 0 && r.Unexpected == 0
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (difftest-report.json).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeReport reads a report written by Encode and checks the schema.
func DecodeReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("report schema %q, want %q", r.Schema, Schema)
	}
	return &r, nil
}

// Summary writes a human-readable digest of the run.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "adediff: sources=%d shard=%s configs=%d cells=%d diverged=%d errors=%d\n",
		len(r.Sources), r.Shard, len(r.Configs), r.Cells, r.Diverged, r.ErrorCells)
	if len(r.Faults) > 0 {
		fmt.Fprintf(w, "  faults: points=%d rolled-back=%d crash=%d degraded=%d not-triggered=%d unexpected=%d\n",
			len(r.Faults), r.RolledBack, r.Crashed, r.Degraded, r.NotTriggered, r.Unexpected)
	}
	for _, d := range r.Divergences {
		where := d.Source
		if d.Reduced != "" && d.Reduced != d.Source {
			where += " (reduces to " + d.Reduced + ")"
		}
		if d.Fault != "" {
			where += " with fault " + d.Fault
		}
		what := d.Detail
		if what == "" {
			what = fmt.Sprintf("ret %d vs %d, emits (%d,%d) vs (%d,%d)",
				d.GotRet, d.WantRet, d.GotEmitCount, d.GotEmitSum, d.WantEmitCount, d.WantEmitSum)
		}
		if d.FirstBadRewrite != nil {
			what += fmt.Sprintf(" (first bad rewrite %d)", *d.FirstBadRewrite)
		}
		fmt.Fprintf(w, "  %s %s under %s: %s\n", strings.ToUpper(d.Kind), where, d.Config, what)
	}
}
