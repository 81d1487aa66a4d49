package ristretto

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ristretto/internal/workload"
)

func traceRun(t *testing.T, tr Tracer) CoreSimResult {
	t.Helper()
	g := workload.NewGen(60)
	f := g.FeatureMapExact(2, 6, 6, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(3, 2, 3, 3, 8, 2, 0.6, 0.7)
	cfg := CoreSimConfig{Tiles: 2, Tile: TileConfig{Mults: 8, Gran: 2}, Trace: tr}
	return SimulateCore(f, w, 1, 1, cfg)
}

func TestMemoryTracerEventStructure(t *testing.T) {
	tr := &MemoryTracer{}
	res := traceRun(t, tr)
	if len(tr.Events) == 0 {
		t.Fatal("no events traced")
	}
	counts := map[string]int{}
	last := TraceEvent{Cycle: -1}
	for _, e := range tr.Events {
		counts[e.Event]++
		// Events come in (cycle, tile) order.
		if e.Cycle < last.Cycle {
			t.Fatalf("trace time runs backwards: %d after %d", e.Cycle, last.Cycle)
		}
		if e.Cycle == last.Cycle && e.Tile < last.Tile {
			t.Fatalf("cycle %d: tile %d's event after tile %d's", e.Cycle, e.Tile, last.Tile)
		}
		last = e
		if e.Tile < 0 || e.Tile >= 2 {
			t.Fatalf("bad tile id %d", e.Tile)
		}
	}
	// Every tile reports completion; drains are paired.
	if counts["tile_done"] != 2 {
		t.Fatalf("tile_done count %d, want 2", counts["tile_done"])
	}
	if counts["drain_start"] == 0 || counts["drain_start"] != counts["drain_end"] {
		t.Fatalf("unpaired drains: %v", counts)
	}
	if counts["job_start"] == 0 || counts["chunk_start"] < counts["job_start"] {
		t.Fatalf("implausible job/chunk events: %v", counts)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
}

func TestJSONTracerOutput(t *testing.T) {
	var buf bytes.Buffer
	tr := &JSONTracer{W: &buf}
	traceRun(t, tr)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != tr.Events() {
		t.Fatalf("%d lines vs %d events", len(lines), tr.Events())
	}
	for _, ln := range lines {
		var e TraceEvent
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if e.Event == "" {
			t.Fatalf("event kind missing in %q", ln)
		}
	}
}

func TestTracingDoesNotPerturbResults(t *testing.T) {
	plain := traceRun(t, nil)
	traced := traceRun(t, &MemoryTracer{})
	if plain.Cycles != traced.Cycles {
		t.Fatalf("tracing changed cycles: %d vs %d", plain.Cycles, traced.Cycles)
	}
	if !plain.Output.Equal(traced.Output) {
		t.Fatal("tracing changed results")
	}
}
