package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program: a request, a phase, or a direct call into a layer function.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the run started
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. Like the run
// it belongs to, it is used from one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	costNS int64 // time spent inside begin/end: the bookkeeping a traced run adds
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span under parent and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUS: us(now.Sub(t.t0))})
	t.costNS += int64(time.Since(now))
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.spans[id-1].EndUS = us(now.Sub(t.t0))
	t.costNS += int64(time.Since(now))
}

// timed runs fn inside a span and returns its wall time; it times fn even
// when untraced, so replays measure the same way in both modes.
func (t *tracer) timed(name string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// selfTimes returns each span name's summed self time in milliseconds and
// its span count. A span's self time is its duration minus the part of its
// interval covered by its children (overlapping children counted once).
func (t *tracer) selfTimes() (map[string]float64, map[string]int) {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		covered := coveredUS(kids[s.ID], s.StartUS, s.EndUS)
		self[s.Name] += (s.EndUS - s.StartUS - covered) / 1e3
		count[s.Name]++
	}
	return self, count
}

// coveredUS is the length of the union of the children's intervals,
// clipped to [lo, hi].
func coveredUS(children []span, lo, hi float64) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		a, b := max(c.StartUS, lo), min(c.EndUS, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// traceDoc is the JSON file a traced run writes: every span, the per-name
// self times, and the per-workload breakdowns (per CNN layer, per cell,
// per network, per accelerator) that are too fine for the result line.
type traceDoc struct {
	RunID     string              `json:"run_id"`
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	InputSet  int64               `json:"input_set"`
	Size      string              `json:"size"`
	Spans     []span              `json:"spans"`
	SelfMS    map[string]float64  `json:"self_ms"`
	SpanCount map[string]int      `json:"span_count"`
	TracerMS  float64             `json:"tracer_ms"`
	EndToEnd  map[string]metric   `json:"end_to_end_traced"`
	PerLayer  map[string]metric   `json:"per_layer"`
	Detail    map[string]any      `json:"detail"`
	Tails     map[string]tailStat `json:"tails"`
	Problems  []string            `json:"problems,omitempty"`
}

// write stores the document as indented JSON.
func (d *traceDoc) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
