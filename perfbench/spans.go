package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: a name, a
// start, a duration, the span that caused it (0 for a root) and the
// program or request it belongs to.
type span struct {
	ID     int
	Parent int
	Name   string
	Key    string // program abbreviation or request ID
	Start  time.Time
	Dur    time.Duration
	Lane   int // trace track of a root span; children inherit it
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name, key string, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start, Dur: dur})
	return id
}

// open starts a span whose ID is needed by children before it ends;
// close fills in its duration.
func (t *tracer) open(parent int, name, key string) int {
	return t.add(parent, name, key, time.Now(), 0)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = time.Since(s.Start)
}

// setLane puts a root span on its own trace track, for spans that
// overlap in time (concurrent clients).
func (t *tracer) setLane(id, lane int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Lane = lane
}

// do runs f inside a span and returns f's error.
func (t *tracer) do(parent int, name, key string, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.add(parent, name, key, start, time.Since(start))
	return err
}

// selfTimes returns, for every span named name under a root span
// named root ("" for any root), its duration minus the part of its
// interval that its direct children cover, in microseconds, grouped
// by key.
func (t *tracer) selfTimes(root, name string) map[string][]float64 {
	return t.collect(root, name, true, false)
}

// selfTimesPerRoot is selfTimes with the spans under one root span
// summed: one value per root, such as one per compile, rather than one
// per call.
func (t *tracer) selfTimesPerRoot(root, name string) map[string][]float64 {
	return t.collect(root, name, true, true)
}

// durations is selfTimes without subtracting the children.
func (t *tracer) durations(root, name string) map[string][]float64 {
	return t.collect(root, name, false, false)
}

func (t *tracer) collect(root, name string, self, perRoot bool) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	rootOf := make([]int, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	sums := map[int]float64{}
	var roots []int
	for _, s := range t.spans {
		if s.Name != name || root != "" && t.spans[rootOf[s.ID]-1].Name != root {
			continue
		}
		d := s.Dur
		if self {
			d -= covered(s, children[s.ID])
		}
		us := float64(d.Nanoseconds()) / 1e3
		if !perRoot {
			out[s.Key] = append(out[s.Key], us)
			continue
		}
		r := rootOf[s.ID]
		if _, ok := sums[r]; !ok {
			roots = append(roots, r)
		}
		sums[r] += us
	}
	for _, r := range roots {
		key := t.spans[r-1].Key
		out[key] = append(out[key], sums[r])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Time }
	end := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// traceEvent is one Chrome trace_event record, field for field the
// shape remarks.Emitter.WriteTrace writes for `adec -trace`, so both
// files open in the same viewer.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a complete ("X") event. A span
// shares its root's track, so nesting shows as in the ADE pass trace;
// the category is the layer (the name up to the first dot).
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	track := make([]int, len(t.spans)+1)
	evs := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Parent == 0 {
			track[s.ID] = 1 + s.Lane
		} else {
			track[s.ID] = track[s.Parent]
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS:  s.Start.Sub(t.origin).Microseconds(),
			Dur: s.Dur.Microseconds(),
			PID: 1, TID: track[s.ID],
			Args: map[string]any{"key": s.Key, "id": s.ID, "parent": s.Parent},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return json.NewEncoder(w).Encode(evs)
}
