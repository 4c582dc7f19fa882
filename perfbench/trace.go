package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls (the library itself is not instrumented). Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Family string        `json:"family"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced
// operations pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; finish closes it.
type spanRef struct {
	t    *tracer
	s    span
	open bool
}

// start opens a span. parent is the enclosing spanRef (zero for a root).
func (t *tracer) start(op int64, parent spanRef, family, layer, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, open: true, s: span{
		ID: t.nextID.Add(1), Parent: parent.s.ID, Op: op,
		Family: family, Layer: layer, Name: name, Start: time.Since(t.t0),
	}}
}

// finish closes the span and records it.
func (r spanRef) finish() {
	if !r.open {
		return
	}
	r.s.End = time.Since(r.t.t0)
	r.t.record(r.s)
}

// child records an already-measured sub-interval of r, such as an
// engine phase the library reported in its Stats, placed at offset
// from r's start.
func (r spanRef) child(layer, name string, offset, d time.Duration) {
	if !r.open || d <= 0 {
		return
	}
	start := r.s.Start + offset
	r.t.record(span{
		ID: r.t.nextID.Add(1), Parent: r.s.ID, Op: r.s.Op, Family: r.s.Family,
		Layer: layer, Name: name, Start: start, End: start + d,
	})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per family and layer, the total self time of the
// family's spans — each span's duration minus the part of it that its
// children cover — and the number of distinct operations per family.
func (t *tracer) selfTimes() (self map[string]map[string]time.Duration, ops map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	opsSeen := map[string]map[int64]bool{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if opsSeen[s.Family] == nil {
			opsSeen[s.Family] = map[int64]bool{}
		}
		opsSeen[s.Family][s.Op] = true
	}
	self = map[string]map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		if self[s.Family] == nil {
			self[s.Family] = map[string]time.Duration{}
		}
		self[s.Family][s.Layer] += d
	}
	ops = map[string]int{}
	for f, m := range opsSeen {
		ops[f] = len(m)
	}
	return self, ops
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, end := parent.Start, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > end {
			total += end - cur
			cur, end = s, e
		} else if e > end {
			end = e
		}
	}
	return total + end - cur
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
