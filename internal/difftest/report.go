package difftest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"memoir/internal/bench"
)

// Schema identifies the report format; bump when fields change
// incompatibly so downstream tooling can refuse stale baselines.
// v2 added the execution-engine axis: per-entry "engine" fields and
// "op-counts" divergences between engine twins. v3 added the
// fault-injection sweep ("faultSweep", "crash"/"degraded" divergence
// kinds and their fuel-bisected first-bad-rewrite index). v4 added the
// skeletal-enumeration sweep ("enum", divergences carrying skeleton
// IDs and their reduced smallest-failing-prefix IDs).
const Schema = "adediff/v4"

// Report is the machine-readable result of one harness run
// (difftest-report.json).
type Report struct {
	Schema  string   `json:"schema"`
	Scale   string   `json:"scale"`
	Shard   string   `json:"shard"`
	Configs []string `json:"configs"`

	Benchmarks []BenchReport `json:"benchmarks,omitempty"`
	Random     *RandomReport `json:"random,omitempty"`
	FaultSweep *FaultReport  `json:"faultSweep,omitempty"`
	Enum       *EnumReport   `json:"enum,omitempty"`

	Divergences []Divergence `json:"divergences,omitempty"`

	// Summary counters, filled by Finish.
	Cells      int `json:"cells"`
	Diverged   int `json:"diverged"`
	ErrorCells int `json:"errorCells"`
}

// BenchReport groups one benchmark's per-config entries.
type BenchReport struct {
	Abbr    string  `json:"bench"`
	Entries []Entry `json:"entries"`
}

// Entry is one (benchmark, config) cell: the canonical output summary
// plus the deterministic interpreter op counts and the enumeration
// translation-call counts from internal/interp's stats.
type Entry struct {
	Config string `json:"config"`
	// Engine is the execution engine the cell ran on ("interp" or
	// "vm"); both must produce identical counts.
	Engine    string `json:"engine"`
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

	Diverged bool   `json:"diverged,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Divergence records one mismatch: an output divergence against the
// reference (Kind ""), an op-count divergence between an engine twin
// pair (Kind "op-counts"), or — in fault-sweep mode — a contained
// injected-fault effect (Kind "crash" or "degraded"). Fault-sweep
// divergences are informative: an injected fault is supposed to be
// visible, so they never fail the run.
type Divergence struct {
	Bench  string `json:"bench,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Config string `json:"config"`
	Kind   string `json:"kind,omitempty"`
	// Detail narrates which deterministic counters drifted for
	// op-count divergences, or the fault and its effect for
	// fault-sweep divergences.
	Detail string `json:"detail,omitempty"`
	// Fault names the injection point for "crash"/"degraded" kinds.
	Fault string `json:"fault,omitempty"`
	// FirstBadRewrite, for a fuel-bisected "degraded"/"crash"
	// divergence on an ADE column, is the smallest rewrite count at
	// which the fault's effect appears: the first faulty rewrite. 0
	// means the program misbehaves even untransformed.
	FirstBadRewrite *int `json:"firstBadRewrite,omitempty"`
	// Skeleton, in enumeration mode, is the ID of the diverging
	// skeleton — replay with adediff -enum-id.
	Skeleton string `json:"skeleton,omitempty"`
	// ReducedSkeleton is the smallest statement-sequence prefix of
	// Skeleton whose cell still fails (equal to Skeleton when no
	// proper prefix reproduces the failure).
	ReducedSkeleton string `json:"reducedSkeleton,omitempty"`

	WantRet       uint64 `json:"wantRet"`
	GotRet        uint64 `json:"gotRet"`
	WantEmitSum   uint64 `json:"wantEmitSum"`
	GotEmitSum    uint64 `json:"gotEmitSum"`
	WantEmitCount uint64 `json:"wantEmitCount"`
	GotEmitCount  uint64 `json:"gotEmitCount"`
}

// FaultReport summarizes the fault-injection sweep (adediff -faults):
// every selected injection point crossed with the benchmark × config
// matrix, each cell classified by how the system contained the fault.
type FaultReport struct {
	// Points lists the injection-point names the sweep covered.
	Points []string    `json:"points"`
	Cells  []FaultCell `json:"cells"`

	// Tallies by outcome, filled by Finish. Unexpected must be zero
	// for the run to pass: every other outcome is a contained fault.
	RolledBack   int `json:"rolledBack"`
	Crashed      int `json:"crashed"`
	Degraded     int `json:"degraded"`
	NotTriggered int `json:"notTriggered"`
	Unexpected   int `json:"unexpected"`
}

// FaultCell is one (injection point, benchmark, config) cell of the
// fault sweep.
type FaultCell struct {
	Fault  string `json:"fault"`
	Bench  string `json:"bench"`
	Config string `json:"config"`
	// Outcome is one of the Fault* constants: "rolled-back" (the fault
	// fired and was fully contained — compile-time rollback or a
	// runtime fault that never reached the output), "crash" (the run
	// stopped with a structured error instead of a process panic),
	// "degraded" (wrong output, no crash — the miscompile shape),
	// "not-triggered" (the point's ordinal or pass was never reached),
	// or "unexpected" (a panic escaped containment; fails the run).
	Outcome string `json:"outcome"`
	Detail  string `json:"detail,omitempty"`
	// FirstBadRewrite is the fuel-bisected first faulty rewrite index
	// for "degraded"/"crash" cells on ADE columns; -1 when bisection
	// does not apply. 0 means even the untransformed program
	// misbehaves under this fault.
	FirstBadRewrite int `json:"firstBadRewrite"`
}

// EnumReport summarizes the skeletal-enumeration mode
// (adediff -enum / -enum-id).
type EnumReport struct {
	// Bound is the statement-count bound the walk covered (0 in
	// replay-by-ID mode).
	Bound int `json:"bound"`
	// Total is the full skeleton count at Bound, before sharding.
	Total int `json:"total"`
	// Skeletons is the number of distinct skeletons this shard ran.
	Skeletons int `json:"skeletons"`
	// Cells is the number of (skeleton, config) cells executed.
	Cells int `json:"cells"`
	// IDs echoes an explicit replay list (adediff -enum-id).
	IDs []string `json:"ids,omitempty"`
	// Fault names the injected fault point, when the sweep ran under
	// injection (the harness's own fault-finding proof).
	Fault string `json:"fault,omitempty"`
	// Entries records the problem cells only — a clean exhaustive
	// sweep stays small no matter the bound.
	Entries []EnumEntry `json:"entries,omitempty"`
}

// EnumEntry is one failing (skeleton, config) cell of the enumeration
// sweep.
type EnumEntry struct {
	Skeleton string `json:"skeleton"`
	Config   string `json:"config"`
	Engine   string `json:"engine"`
	Diverged bool   `json:"diverged,omitempty"`
	Error    string `json:"error,omitempty"`
}

// RandomReport summarizes the -seed random-program mode.
type RandomReport struct {
	Seed    int64         `json:"seed"`
	Count   int           `json:"count"`
	Entries []RandomEntry `json:"entries"`
}

// RandomEntry is one (seed, config) cell of the random mode.
type RandomEntry struct {
	Seed     int64  `json:"seed"`
	Config   string `json:"config"`
	Engine   string `json:"engine"`
	Ret      uint64 `json:"ret"`
	EmitSum  uint64 `json:"emitSum"`
	Enc      uint64 `json:"enc"`
	Dec      uint64 `json:"dec"`
	Add      uint64 `json:"add"`
	Diverged bool   `json:"diverged,omitempty"`
	Error    string `json:"error,omitempty"`
}

// NewReport returns an empty report for the given run shape.
func NewReport(sc bench.Scale, shard Shard, configs []string) *Report {
	return &Report{
		Schema:  Schema,
		Scale:   sc.String(),
		Shard:   shard.String(),
		Configs: configs,
	}
}

// Finish fills the summary counters from the recorded cells.
func (r *Report) Finish() {
	r.Cells, r.Diverged, r.ErrorCells = 0, 0, 0
	count := func(diverged bool, errMsg string) {
		r.Cells++
		if diverged {
			r.Diverged++
		}
		if errMsg != "" {
			r.ErrorCells++
		}
	}
	for _, b := range r.Benchmarks {
		for _, e := range b.Entries {
			count(e.Diverged, e.Error)
		}
	}
	if r.Random != nil {
		for _, e := range r.Random.Entries {
			count(e.Diverged, e.Error)
		}
	}
	if en := r.Enum; en != nil {
		// Enumeration mode records only the problem cells; the clean
		// ones are counted as they execute.
		r.Cells += en.Cells
		for _, e := range en.Entries {
			if e.Diverged {
				r.Diverged++
			}
			if e.Error != "" {
				r.ErrorCells++
			}
		}
	}
	if fs := r.FaultSweep; fs != nil {
		fs.RolledBack, fs.Crashed, fs.Degraded, fs.NotTriggered, fs.Unexpected = 0, 0, 0, 0, 0
		for _, c := range fs.Cells {
			r.Cells++
			switch c.Outcome {
			case FaultRolledBack:
				fs.RolledBack++
			case FaultCrash:
				fs.Crashed++
			case FaultDegraded:
				fs.Degraded++
			case FaultNotTriggered:
				fs.NotTriggered++
			default:
				fs.Unexpected++
			}
		}
	}
}

// OK reports whether the run found no divergences, no cell errors, and
// — in fault-sweep mode — no fault that escaped containment.
// Contained faults ("crash"/"degraded" sweep outcomes) do not fail the
// run: an injected fault is supposed to be visible; what must never
// happen is an unrecovered panic.
func (r *Report) OK() bool {
	return r.Diverged == 0 && r.ErrorCells == 0 &&
		(r.FaultSweep == nil || r.FaultSweep.Unexpected == 0)
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
	fmt.Fprintf(w, "adediff: scale=%s shard=%s configs=%d cells=%d diverged=%d errors=%d\n",
		r.Scale, r.Shard, len(r.Configs), r.Cells, r.Diverged, r.ErrorCells)
	if en := r.Enum; en != nil {
		fmt.Fprintf(w, "  enum: bound=%d skeletons=%d/%d cells=%d fault=%q\n",
			en.Bound, en.Skeletons, en.Total, en.Cells, en.Fault)
	}
	for _, d := range r.Divergences {
		where := d.Bench
		if where == "" && d.Skeleton != "" {
			where = "skeleton " + d.Skeleton
			if d.ReducedSkeleton != "" && d.ReducedSkeleton != d.Skeleton {
				where += " (reduces to " + d.ReducedSkeleton + ")"
			}
		}
		if where == "" {
			where = fmt.Sprintf("seed %d", d.Seed)
		}
		switch d.Kind {
		case "op-counts":
			fmt.Fprintf(w, "  DIVERGED %s under %s: op counts vs engine twin: %s\n",
				where, d.Config, d.Detail)
		case FaultCrash, FaultDegraded:
			bisect := ""
			if d.FirstBadRewrite != nil {
				bisect = fmt.Sprintf(" (first bad rewrite %d)", *d.FirstBadRewrite)
			}
			fmt.Fprintf(w, "  %s %s under %s: fault %s: %s%s\n",
				strings.ToUpper(d.Kind), where, d.Config, d.Fault, d.Detail, bisect)
		default:
			fmt.Fprintf(w, "  DIVERGED %s under %s: ret %d vs %d, emits (%d,%d) vs (%d,%d)\n",
				where, d.Config, d.GotRet, d.WantRet,
				d.GotEmitCount, d.GotEmitSum, d.WantEmitCount, d.WantEmitSum)
		}
	}
	if fs := r.FaultSweep; fs != nil {
		fmt.Fprintf(w, "  fault sweep: points=%d cells=%d rolled-back=%d crash=%d degraded=%d not-triggered=%d unexpected=%d\n",
			len(fs.Points), len(fs.Cells), fs.RolledBack, fs.Crashed, fs.Degraded, fs.NotTriggered, fs.Unexpected)
		for _, c := range fs.Cells {
			if c.Outcome == FaultUnexpected {
				fmt.Fprintf(w, "  UNEXPECTED %s under %s: fault %s: %s\n", c.Bench, c.Config, c.Fault, c.Detail)
			}
		}
	}
	errs := 0
	report := func(where, cfg, msg string) {
		if msg == "" {
			return
		}
		errs++
		fmt.Fprintf(w, "  ERROR %s under %s: %s\n", where, cfg, msg)
	}
	for _, b := range r.Benchmarks {
		for _, e := range b.Entries {
			report(b.Abbr, e.Config, e.Error)
		}
	}
	if r.Random != nil {
		for _, e := range r.Random.Entries {
			report(fmt.Sprintf("seed %d", e.Seed), e.Config, e.Error)
		}
	}
	if r.Enum != nil {
		for _, e := range r.Enum.Entries {
			report("skeleton "+e.Skeleton, e.Config, e.Error)
		}
	}
}
