package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<module>.<Function>",
// optionally followed by "/<label>" (an experiment ID, a benchmark, a
// worker). Run groups the spans of one unit of work: a workload pass or
// one HTTP request. Start and End are nanoseconds since the recorder's
// epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module prefix of the span name ("cpu" for
// "cpu.System.Run/gzip").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// fn is the span name without its label.
func (s span) fn() string {
	f, _, _ := strings.Cut(s.Name, "/")
	return f
}

// label is the part of the span name after "/", or "".
func (s span) label() string {
	_, l, _ := strings.Cut(s.Name, "/")
	return l
}

// recorder keeps spans in memory until the traced run ends. A nil
// *recorder is tracing switched off: every method returns at once
// without reading the clock, so untraced runs execute the same code.
type recorder struct {
	epoch time.Time

	mu sync.Mutex
	//guard:mu
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (r *recorder) begin(name string, parent, run int64) int64 {
	if r == nil {
		return 0
	}
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: start})
	return id
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end
}

// tracer places new spans of one run under one parent span. The zero
// tracer (nil recorder) records nothing.
type tracer struct {
	rec         *recorder
	run, parent int64
}

// begin opens a span under t and returns the tracer for its children;
// call end on the returned tracer to close the span.
func (t tracer) begin(name string) tracer {
	return tracer{rec: t.rec, run: t.run, parent: t.rec.begin(name, t.parent, t.run)}
}

// end closes the span that begin opened.
func (t tracer) end() { t.rec.end(t.parent) }

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines in path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", errors.Join(err, f.Close()))
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that child spans cover.
// Children may overlap (parallel sweep jobs under one Pool.Run), so the
// covered time is the length of the union of their intervals, clipped
// to the parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerSelf sums self time per layer over every span.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// named returns the spans of run whose name without label is fn.
func named(spans []span, run int64, fn string) []span {
	var out []span
	for _, s := range spans {
		if s.Run == run && s.fn() == fn {
			out = append(out, s)
		}
	}
	return out
}

// totalDur sums span durations.
func totalDur(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}
