package sim

import (
	"fmt"
	"strings"
)

// Tracer observes simulation activity. Implementations must be cheap; they
// run inline with the event loop.
type Tracer interface {
	Trace(at Time, category, message string)
}

// TraceEntry is one recorded trace line.
type TraceEntry struct {
	At       Time
	Category string
	Message  string
}

// Recorder is a Tracer that keeps entries in memory, optionally filtered by
// category. The zero value records everything.
type Recorder struct {
	entries  []TraceEntry
	onlyCats map[string]bool
}

var _ Tracer = (*Recorder)(nil)

// NewRecorder returns a recorder restricted to the given categories; with no
// categories it records everything.
func NewRecorder(categories ...string) *Recorder {
	r := &Recorder{}
	if len(categories) > 0 {
		r.onlyCats = make(map[string]bool, len(categories))
		for _, c := range categories {
			r.onlyCats[c] = true
		}
	}
	return r
}

// Trace implements Tracer.
func (r *Recorder) Trace(at Time, category, message string) {
	if r.onlyCats != nil && !r.onlyCats[category] {
		return
	}
	r.entries = append(r.entries, TraceEntry{At: at, Category: category, Message: message})
}

// Len returns the number of recorded entries.
func (r *Recorder) Len() int { return len(r.entries) }

// String renders the recorded entries one per line.
func (r *Recorder) String() string {
	var b strings.Builder
	for _, e := range r.entries {
		fmt.Fprintf(&b, "%14v [%s] %s\n", e.At, e.Category, e.Message)
	}
	return b.String()
}

// MultiTracer fans a trace stream out to several tracers.
type MultiTracer []Tracer

var _ Tracer = MultiTracer(nil)

// Trace implements Tracer.
func (m MultiTracer) Trace(at Time, category, message string) {
	for _, t := range m {
		t.Trace(at, category, message)
	}
}
