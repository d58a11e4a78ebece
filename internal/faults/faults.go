// Package faults provides deterministic fault injection for the ADE
// compiler and both execution engines. A fault is a named Point — a
// forced sub-pass panic, a failing collection allocation, or a
// corrupted enumeration slot — and an Injector is the per-run counter
// state that decides exactly when the point fires. Because both
// engines perform the identical sequence of allocations and
// enumeration adds (the PR-2 parity invariant), ordinal-based points
// fire at the same dynamic operation on the interpreter and the VM,
// so every degradation path is reproducible and differential-testable
// (adediff -fault all).
//
// The package holds no global state: callers construct one Injector
// per compilation (core.Options.Faults) or per execution
// (interp.Options.Faults) and never share it between runs.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies an injection point.
type Kind int

const (
	// PassPanic forces a panic inside the named ADE sub-pass, at its
	// entry. Exercises the compiler sandbox's recover-and-rollback.
	PassPanic Kind = iota
	// AllocFail fails the N-th collection allocation of a run (the
	// engines panic with an InjectedFault, converted to a structured
	// ErrRuntimePanic at the Run boundary).
	AllocFail
	// EnumCorrupt silently corrupts an enumeration slot at the N-th
	// enumeration add: Dec of one identifier returns the wrong value,
	// so the miscompile-shaped failure mode (wrong output, no crash)
	// is reachable on demand.
	EnumCorrupt
	// IOWriteFail fails the N-th durable-store write outright (the
	// write returns an error before any bytes land on disk).
	IOWriteFail
	// IOTornWrite truncates the N-th durable-store write mid-payload
	// and reports success — the on-disk state a kill -9 between write
	// and fsync leaves behind. Recovery must detect it by checksum.
	IOTornWrite
	// IOCorruptRead flips one byte of the N-th durable-store read
	// after it leaves the disk, simulating media corruption; the
	// store's checksum must catch it and quarantine the entry.
	IOCorruptRead
)

func (k Kind) String() string {
	switch k {
	case PassPanic:
		return "pass-panic"
	case AllocFail:
		return "alloc-fail"
	case EnumCorrupt:
		return "enum-corrupt"
	case IOWriteFail:
		return "write-fail"
	case IOTornWrite:
		return "torn-write"
	case IOCorruptRead:
		return "corrupt-on-read"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Passes lists the sandboxed ADE sub-pass names, in pipeline order.
// They mirror internal/core's phase spans; core asserts the agreement
// in its tests.
var Passes = []string{
	"use-analysis",
	"static-enum",
	"candidate-formation",
	"interprocedural-unification",
	"union-safety",
	"transform",
}

// Point is one registered injection point. Name is the stable
// identifier used by adediff -fault and the CI sweep.
type Point struct {
	Name string
	Kind Kind
	// Pass is the ADE sub-pass a PassPanic fires in.
	Pass string
	// N is the 1-based dynamic ordinal an AllocFail (allocation) or
	// EnumCorrupt (enumeration add) point fires at.
	N int
}

// Registry returns every registered compiler/engine injection point,
// in a stable order: one pass panic per ADE sub-pass, then the runtime
// points. The CI fault sweep iterates exactly this list; the durable
// store's I/O points live in IOPoints because they only fire inside a
// store, never inside a compile or an execution.
func Registry() []Point {
	var pts []Point
	for _, pass := range Passes {
		pts = append(pts, Point{Name: "pass-panic:" + pass, Kind: PassPanic, Pass: pass})
	}
	for _, n := range []int{1, 7} {
		pts = append(pts, Point{Name: "alloc-fail:" + strconv.Itoa(n), Kind: AllocFail, N: n})
	}
	for _, n := range []int{1, 100} {
		pts = append(pts, Point{Name: "enum-corrupt:" + strconv.Itoa(n), Kind: EnumCorrupt, N: n})
	}
	return pts
}

// IOPoints returns the registered durable-store I/O injection points,
// in a stable order. They drive internal/server/store (adeserved
// chaos mode and the store crasher corpus), not the engines: an I/O
// point wired into a compile or an execution never fires.
func IOPoints() []Point {
	return []Point{
		{Name: "write-fail:1", Kind: IOWriteFail, N: 1},
		{Name: "torn-write:1", Kind: IOTornWrite, N: 1},
		{Name: "corrupt-on-read:1", Kind: IOCorruptRead, N: 1},
	}
}

// Names lists every registered point name — compiler/engine registry
// first, then the store I/O points.
func Names() []string {
	var names []string
	for _, p := range Registry() {
		names = append(names, p.Name)
	}
	for _, p := range IOPoints() {
		names = append(names, p.Name)
	}
	return names
}

// ByName resolves a point name. Unlike Registry, the ordinal kinds
// accept any positive N ("alloc-fail:42"), so tests and bisection can
// probe points off the registered grid.
func ByName(name string) (Point, error) {
	for _, pass := range Passes {
		if name == "pass-panic:"+pass {
			return Point{Name: name, Kind: PassPanic, Pass: pass}, nil
		}
	}
	ordinalPrefixes := map[Kind]string{
		AllocFail:     "alloc-fail:",
		EnumCorrupt:   "enum-corrupt:",
		IOWriteFail:   "write-fail:",
		IOTornWrite:   "torn-write:",
		IOCorruptRead: "corrupt-on-read:",
	}
	for kind, prefix := range ordinalPrefixes {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n, err := strconv.Atoi(name[len(prefix):])
		if err != nil || n < 1 {
			return Point{}, fmt.Errorf("faults: %s needs a positive ordinal, got %q", prefix, name)
		}
		return Point{Name: name, Kind: kind, N: n}, nil
	}
	return Point{}, fmt.Errorf("faults: unknown injection point %q (registered: %s)", name, strings.Join(Names(), ", "))
}

// FromSeed deterministically picks a registered point — the seeded
// plan helper for randomized sweeps.
func FromSeed(seed int64) Point {
	reg := Registry()
	i := int(seed % int64(len(reg)))
	if i < 0 {
		i += len(reg)
	}
	return reg[i]
}

// Injector is the per-run counter state of one injection point. The
// zero-value-free constructor discipline matters: an Injector must be
// fresh for every compilation or execution, or the ordinals drift.
// All methods are nil-receiver safe no-ops, so engines can hold a nil
// *Injector on the default path.
type Injector struct {
	pt     Point
	allocs int
	adds   int
	writes int
	reads  int
	fired  bool
}

// NewInjector returns a fresh injector for pt.
func NewInjector(pt Point) *Injector { return &Injector{pt: pt} }

// Point returns the injection point this injector drives.
func (i *Injector) Point() Point {
	if i == nil {
		return Point{}
	}
	return i.pt
}

// Fired reports whether the point has triggered in this run.
func (i *Injector) Fired() bool { return i != nil && i.fired }

// PassPanics reports whether the named compile sub-pass must panic
// now. The caller (core's sandbox) performs the actual panic so it is
// raised inside the recovery scope.
func (i *Injector) PassPanics(pass string) bool {
	if i == nil || i.pt.Kind != PassPanic || i.pt.Pass != pass {
		return false
	}
	i.fired = true
	return true
}

// FailAlloc counts one collection allocation and reports whether it
// is the injected failing allocation.
func (i *Injector) FailAlloc() bool {
	if i == nil || i.pt.Kind != AllocFail {
		return false
	}
	i.allocs++
	if i.allocs == i.pt.N {
		i.fired = true
		return true
	}
	return false
}

// CorruptAdd counts one enumeration add and reports whether the
// enumeration must be corrupted now.
func (i *Injector) CorruptAdd() bool {
	if i == nil || i.pt.Kind != EnumCorrupt {
		return false
	}
	i.adds++
	if i.adds == i.pt.N {
		i.fired = true
		return true
	}
	return false
}

// FailWrite counts one durable-store write and reports whether it is
// the injected failing write (IOWriteFail).
func (i *Injector) FailWrite() bool {
	if i == nil || i.pt.Kind != IOWriteFail {
		return false
	}
	i.writes++
	if i.writes == i.pt.N {
		i.fired = true
		return true
	}
	return false
}

// TornWrite counts one durable-store write and reports whether it
// must land torn — truncated mid-payload but reported as a success
// (IOTornWrite).
func (i *Injector) TornWrite() bool {
	if i == nil || i.pt.Kind != IOTornWrite {
		return false
	}
	i.writes++
	if i.writes == i.pt.N {
		i.fired = true
		return true
	}
	return false
}

// CorruptRead counts one durable-store read and reports whether its
// payload must be corrupted after leaving the disk (IOCorruptRead).
func (i *Injector) CorruptRead() bool {
	if i == nil || i.pt.Kind != IOCorruptRead {
		return false
	}
	i.reads++
	if i.reads == i.pt.N {
		i.fired = true
		return true
	}
	return false
}

// InjectedFault is the panic payload engines raise on an injected
// runtime fault; the Run-boundary recovery converts it into a
// structured ErrRuntimePanic whose message names the point.
type InjectedFault struct{ P Point }

func (f *InjectedFault) Error() string { return "injected fault " + f.P.Name }
