package ristretto

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one state transition of a compute tile during a core
// simulation — the unit of the exported execution trace. Events mark
// transitions (job/chunk/drain boundaries), not cycles, so traces stay
// compact. A simulation emits them in (Cycle, Tile) order, and one tile's
// events at one cycle in the order they happened.
type TraceEvent struct {
	Cycle  int64  `json:"cycle"`
	Tile   int    `json:"tile"`
	Event  string `json:"event"` // job_start, chunk_start, drain_start, drain_end, tile_done
	Job    int    `json:"job"`
	Chunk  int    `json:"chunk,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Tracer receives trace events.
type Tracer interface {
	Emit(TraceEvent)
}

// JSONTracer writes one JSON object per line (JSONL) to an io.Writer.
type JSONTracer struct {
	W   io.Writer
	err error
	n   int
}

// Emit writes the event; the first write error is retained and surfaced by
// Err (tracing must never abort a simulation).
func (t *JSONTracer) Emit(e TraceEvent) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err == nil {
		_, err = fmt.Fprintf(t.W, "%s\n", b)
	}
	if err != nil {
		t.err = err
		return
	}
	t.n++
}

// Err returns the first write error, if any.
func (t *JSONTracer) Err() error { return t.err }

// Events returns how many events were written.
func (t *JSONTracer) Events() int { return t.n }

// MemoryTracer retains events in memory (tests, analysis).
type MemoryTracer struct {
	Events []TraceEvent
}

// Emit appends the event.
func (t *MemoryTracer) Emit(e TraceEvent) { t.Events = append(t.Events, e) }
