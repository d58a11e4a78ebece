package interp

import (
	"context"
	"errors"
	"testing"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

func TestNewRuntimeNormalizesOptions(t *testing.T) {
	r := NewRuntime(Options{})
	def := DefaultOptions()
	if r.Opts.MemSampleEvery != def.MemSampleEvery || r.Opts.DefaultSet != def.DefaultSet || r.Opts.DefaultMap != def.DefaultMap {
		t.Fatalf("zero options normalized to %+v, want the DefaultOptions values", r.Opts)
	}
	if r.Limited || r.Stats == nil {
		t.Fatalf("unlimited runtime: Limited %v, Stats %v", r.Limited, r.Stats)
	}
	r = NewRuntime(Options{DefaultSet: collections.ImplSwissSet, MaxBytes: 1})
	if r.Opts.DefaultSet != collections.ImplSwissSet || !r.Limited {
		t.Fatalf("explicit options: DefaultSet %v, Limited %v", r.Opts.DefaultSet, r.Limited)
	}
}

// An iteration-local site keeps one registry slot: the second instance
// replaces the first, and each allocation is two growth events.
func TestNewLocalCollReusesSlot(t *testing.T) {
	r := NewRuntime(Options{MemSampleEvery: 1})
	ct := ir.SeqOf(ir.TU64)
	slot := int32(-1)
	first := r.NewLocalColl(ct, &slot).(*RSeqArr)
	first.Append(IntV(1))
	if slot != 0 || len(r.live) != 1 {
		t.Fatalf("first instance: slot %d, registry %d, want 0, 1", slot, len(r.live))
	}
	second := r.NewLocalColl(ct, &slot)
	if slot != 0 || len(r.live) != 1 || r.live[0] != second {
		t.Fatalf("second instance: slot %d, registry %d, want 0, 1 holding it", slot, len(r.live))
	}
	r.FinalizeMem()
	if r.Stats.CurBytes != second.Bytes() || r.Stats.PeakBytes < first.Bytes()+second.Bytes() {
		t.Fatalf("footprint %d (peak %d), want %d now and both instances at the peak", r.Stats.CurBytes, r.Stats.PeakBytes, second.Bytes())
	}
	if r.untilSample != 1 {
		t.Fatalf("countdown %d after sampling every event", r.untilSample)
	}
}

// A pending memory stop surfaces before a cancelled context, and the
// context is polled only on the deterministic schedule.
func TestCheckpointOrder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRuntime(Options{Context: ctx, MaxBytes: 1, MemSampleEvery: 1})
	if err := r.Checkpoint("f", 2); err != nil {
		t.Fatalf("off-schedule poll: %v", err)
	}
	if err := r.Checkpoint("f", 1025); !errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled context at step 1025: %v", err)
	}
	r.NewColl(ir.SeqOf(ir.TU64)).(*RSeqArr).Append(IntV(1))
	r.Grew()
	err := r.Checkpoint("f", 1)
	var le *LimitError
	if !errors.As(err, &le) || !errors.Is(err, ErrMemBudget) || le.Fn != "f" || le.Steps != 1 {
		t.Fatalf("memory stop with a cancelled context: %v", err)
	}
}

func TestExecTimesAndRecovers(t *testing.T) {
	r := NewRuntime(Options{})
	r.Stats.Steps = 7
	_, err := r.Exec("f", func() (Val, error) { panic("boom") })
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != ErrRuntimePanic || le.Fn != "f" || le.Steps != 7 {
		t.Fatalf("panic: %v", err)
	}
	if r.RunEnd.Before(r.RunStart) {
		t.Fatalf("end %v before start %v", r.RunEnd, r.RunStart)
	}
	if whole, roi := r.Wall(); roi != whole {
		t.Fatalf("no roi marker: roi %v, whole %v", roi, whole)
	}
	ret, err := r.Exec("f", func() (Val, error) {
		r.Emit(IntV(3))
		r.MarkROI()
		r.Emit(IntV(4))
		return IntV(1), nil
	})
	if err != nil || ret.I != 1 {
		t.Fatalf("Exec = %v, %v", ret, err)
	}
	if whole, roi := r.Wall(); roi > whole || r.ROIStart.Before(r.RunStart) || r.RunEnd.Before(r.ROIStart) {
		t.Fatalf("roi %v of whole %v; start %v, roi %v, end %v", roi, whole, r.RunStart, r.ROIStart, r.RunEnd)
	}
	if roi := r.ROIStats(); roi.EmitCount != 1 || roi.EmitSum != collections.Mix64(4) || roi.Steps != 0 {
		t.Fatalf("ROI stats %+v, want the one emit after the marker", roi)
	}
}
