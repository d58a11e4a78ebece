package memoir

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/server/store"
)

// TestCrasherCorpus replays the checked-in crash/budget regression
// corpus (testdata/crashers) on both engines. Each .mir file carries
// its expectation in leading comment directives:
//
//	// expect: parse-error | verify-error | step-budget | mem-budget | runtime-error | ok
//	// ade                (apply the full ADE pipeline before running)
//	// max-steps: N       (step budget for the run)
//	// max-mem: N         (modeled live-memory budget, bytes)
//	// store-fault: P     (additionally replay a durable-store put/get
//	//                     cycle under injected I/O fault point P —
//	//                     write-fail:N | torn-write:N | corrupt-on-read:N —
//	//                     asserting the store degrades cleanly and never
//	//                     returns mangled data)
//
// Every entry was once a live finding — a fuzz-discovered parser
// panic, or a budget/interruption shape the engines must contain —
// and the replay asserts the fixed behavior: no panics anywhere, the
// expected structured outcome, and engine-identical diagnostics and
// partial telemetry.
func TestCrasherCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "crashers", "*.mir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no crasher corpus found: %v", err)
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".mir"), func(t *testing.T) {
			replayCrasher(t, f)
		})
	}
}

type crasherSpec struct {
	expect     string
	ade        bool
	maxSteps   uint64
	maxBytes   int64
	storeFault string
}

var crasherDirective = regexp.MustCompile(`^// (expect|ade|max-steps|max-mem|store-fault)(?::\s*(\S+))?\s*$`)

func parseCrasherSpec(src string) (crasherSpec, error) {
	var spec crasherSpec
	for _, line := range strings.Split(src, "\n") {
		m := crasherDirective.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		switch m[1] {
		case "expect":
			spec.expect = m[2]
		case "ade":
			spec.ade = true
		case "max-steps":
			n, err := strconv.ParseUint(m[2], 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad max-steps: %v", err)
			}
			spec.maxSteps = n
		case "max-mem":
			n, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad max-mem: %v", err)
			}
			spec.maxBytes = n
		case "store-fault":
			if _, err := faults.ByName(m[2]); err != nil {
				return spec, fmt.Errorf("bad store-fault: %v", err)
			}
			spec.storeFault = m[2]
		}
	}
	switch spec.expect {
	case "parse-error", "verify-error", "step-budget", "mem-budget", "runtime-error", "ok":
		return spec, nil
	}
	return spec, fmt.Errorf("missing or unknown `// expect:` directive (got %q)", spec.expect)
}

var positionedErr = regexp.MustCompile(`^line \d+: `)

// replayStoreFault drives a durable-store put/get cycle for the
// crasher's program under the named injected I/O fault point and
// asserts the containment contract: the store degrades to a clean
// error, quarantines (never deletes) anything torn or corrupt, never
// returns mangled data, and serves the artifact intact once the
// one-shot fault has burned out.
func replayStoreFault(t *testing.T, prog *ir.Program, name, src string) {
	pt, err := faults.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjector(faults.NewInjector(pt))
	entry := &store.Entry{
		ProgramHash: ir.ProgramHash(prog),
		OptionsFP:   "crasher",
		Program:     src,
		Size:        int64(len(src)),
	}
	putErr := s.PutArtifact(entry)
	got, getErr := s.GetArtifact(entry.ProgramHash, entry.OptionsFP)
	// The universal invariant, whatever the fault did: a served entry
	// is the exact bytes that were put — never a mangled one.
	if got != nil && got.Program != src {
		t.Fatalf("store served mangled program text under %s", pt.Name)
	}
	st := s.Stats()
	switch pt.Kind {
	case faults.IOWriteFail:
		if putErr == nil {
			t.Fatal("injected write failure did not surface as an error")
		}
		if got != nil || getErr != nil {
			t.Fatalf("failed write left a readable artifact behind (entry=%v, err=%v)", got != nil, getErr)
		}
		if st.WriteErrors == 0 {
			t.Fatalf("write error not counted: %+v", st)
		}
	case faults.IOTornWrite:
		// A torn write reports success — it is the on-disk shape a
		// kill -9 leaves behind; the crash happens after the ack.
		if putErr != nil {
			t.Fatalf("torn write must report success: %v", putErr)
		}
		if getErr == nil && got != nil {
			t.Fatal("torn artifact served intact")
		}
		if st.Quarantined == 0 {
			t.Fatalf("torn artifact not quarantined: %+v", st)
		}
	case faults.IOCorruptRead:
		if putErr != nil {
			t.Fatalf("put: %v", putErr)
		}
		if getErr == nil && got != nil {
			t.Fatal("corrupt read served as an intact artifact")
		}
		if st.Quarantined == 0 {
			t.Fatalf("corrupt artifact not quarantined: %+v", st)
		}
	}
	if pt.Kind != faults.IOWriteFail {
		// Quarantine renames aside; the bytes survive on disk.
		q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.art"))
		if len(q) == 0 {
			t.Fatal("quarantine directory empty — the damaged file was deleted, not preserved")
		}
	}
	// Every registered I/O point is one-shot (fires on the N-th op):
	// after it burns out, a re-put round-trips clean.
	if err := s.PutArtifact(entry); err != nil {
		t.Fatalf("re-put after fault: %v", err)
	}
	got, getErr = s.GetArtifact(entry.ProgramHash, entry.OptionsFP)
	if getErr != nil || got == nil || got.Program != src {
		t.Fatalf("store did not recover once the fault burned out (entry=%v): %v", got != nil, getErr)
	}
}

func replayCrasher(t *testing.T, path string) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the toolchain: %v", r)
		}
	}()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	spec, err := parseCrasherSpec(src)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}

	prog, err := parser.Parse(src)
	if spec.expect == "parse-error" {
		if err == nil {
			t.Fatalf("expected a parse error, got none")
		}
		if !positionedErr.MatchString(err.Error()) {
			t.Fatalf("parse error not positioned: %q", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	err = ir.Verify(prog)
	if spec.expect == "verify-error" {
		if err == nil {
			t.Fatalf("expected a verify error, got none")
		}
		return
	}
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if spec.ade {
		if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
			t.Fatalf("ade: %v", err)
		}
		if err := ir.Verify(prog); err != nil {
			t.Fatalf("verify after ade: %v", err)
		}
	}

	type outcome struct {
		kind     string
		errStr   string
		steps    uint64
		ret      uint64
		checksum uint64
	}
	runOn := func(eng bench.Engine) (o outcome) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("engine %s panicked: %v", eng, r)
			}
		}()
		iopts := interp.DefaultOptions()
		iopts.MaxSteps = spec.maxSteps
		iopts.MaxBytes = spec.maxBytes
		m, err := bench.NewMachine(prog, iopts, eng)
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		ret, err := m.Run("main")
		m.FinalizeMem()
		st := m.Stats
		o.steps, o.ret, o.checksum = st.Steps, ret.I, st.EmitSum
		switch {
		case err == nil:
			o.kind = "ok"
		case errors.Is(err, interp.ErrStepBudget):
			o.kind = "step-budget"
		case errors.Is(err, interp.ErrMemBudget):
			o.kind = "mem-budget"
		default:
			o.kind = "runtime-error"
		}
		if err != nil {
			o.errStr = err.Error()
		}
		return o
	}

	if spec.storeFault != "" {
		replayStoreFault(t, prog, spec.storeFault, src)
	}

	oi := runOn(bench.EngineInterp)
	ov := runOn(bench.EngineVM)
	for _, o := range []outcome{oi, ov} {
		if o.kind != spec.expect {
			t.Fatalf("outcome %q (err %q), want %q", o.kind, o.errStr, spec.expect)
		}
	}
	// Engine parity: identical diagnostics, identical partial (or
	// final) telemetry.
	if oi.errStr != ov.errStr {
		t.Fatalf("engine error divergence:\n  interp: %q\n  vm:     %q", oi.errStr, ov.errStr)
	}
	if oi.steps != ov.steps {
		t.Fatalf("engine step divergence at interruption: interp %d vs vm %d", oi.steps, ov.steps)
	}
	if spec.expect == "ok" && (oi.ret != ov.ret || oi.checksum != ov.checksum) {
		t.Fatalf("engine output divergence: interp (ret %d, sum %d) vs vm (ret %d, sum %d)",
			oi.ret, oi.checksum, ov.ret, ov.checksum)
	}
}
