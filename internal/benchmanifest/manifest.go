package benchmanifest

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"

	"ristretto/internal/safeio"
)

// Schema identifies the manifest format.
const Schema = "ristretto.bench-manifest/v1"

// Samples is how many testing.Benchmark runs Run takes of each entry. One
// run of unchanged code moves by more than the CI gate's tolerance between
// back-to-back manifests on a shared 2-vCPU machine; the median of five
// holds still.
const Samples = 5

// Entry is one benchmark measurement: the sample with the median ns/op of
// Samples runs, its allocations and bytes included.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`        // b.N of the median sample
	Samples     int     `json:"samples,omitempty"` // runs the median is taken over; 0 in manifests of one run
}

// Manifest is the committed benchmark document (BENCH_*.json): the measured
// suite, the Bench.All() wall clock at the recorded scale, and optionally the
// numbers of the implementation the measuring PR replaced (Baseline), with
// the geomean ns/op speedup of the matched entries.
type Manifest struct {
	Schema         string  `json:"schema"`
	Tool           string  `json:"tool"`
	GoVersion      string  `json:"go_version"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	Entries        []Entry `json:"entries"`
	BenchAllScale  int     `json:"bench_all_scale,omitempty"`
	BenchAllWallMs float64 `json:"bench_all_wall_ms,omitempty"`
	Baseline       []Entry `json:"baseline,omitempty"`
	BaselineNote   string  `json:"baseline_note,omitempty"`
	GeomeanSpeedup float64 `json:"geomean_speedup_vs_baseline,omitempty"`
	GeomeanNote    string  `json:"geomean_note,omitempty"`
}

// New returns an empty manifest stamped with the build environment.
func New(tool string) *Manifest {
	return &Manifest{
		Schema:    Schema,
		Tool:      tool,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// Run executes every registry benchmark Samples times through
// testing.Benchmark and records each one's median sample. progress, when
// non-nil, receives a line per entry.
func (m *Manifest) Run(progress func(string)) {
	for _, bm := range Registry() {
		rs := make([]testing.BenchmarkResult, Samples)
		for i := range rs {
			rs[i] = testing.Benchmark(bm.Fn)
		}
		e := median(bm.Name, rs)
		m.Entries = append(m.Entries, e)
		if progress != nil {
			progress(fmt.Sprintf("%-28s %12.1f ns/op %8d B/op %6d allocs/op (%d iters, median of %d)",
				e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Iterations, e.Samples))
		}
	}
}

// median returns the entry of the sample with the median ns/op (the upper
// one of an even count), with that sample's allocations and bytes.
func median(name string, rs []testing.BenchmarkResult) Entry {
	es := make([]Entry, len(rs))
	for i, r := range rs {
		es[i] = Entry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Samples:     len(rs),
		}
	}
	slices.SortStableFunc(es, func(a, b Entry) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	return es[len(es)/2]
}

// ComputeSpeedup fills GeomeanSpeedup from the Baseline entries: the
// geometric mean of baseline/current ns/op over the benchmarks present in
// both lists.
func (m *Manifest) ComputeSpeedup() {
	base := map[string]Entry{}
	for _, e := range m.Baseline {
		base[e.Name] = e
	}
	var logSum float64
	n := 0
	for _, e := range m.Entries {
		b, ok := base[e.Name]
		if !ok || e.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		logSum += math.Log(b.NsPerOp / e.NsPerOp)
		n++
	}
	if n > 0 {
		m.GeomeanSpeedup = math.Exp(logSum / float64(n))
	}
}

// Write atomically writes the manifest as indented JSON.
func (m *Manifest) Write(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return safeio.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a manifest and validates its schema.
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("benchmanifest: %s: %w", path, err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("benchmanifest: %s: schema %q, want %q", path, m.Schema, Schema)
	}
	return &m, nil
}

// Regression is one benchmark that got slower (or more allocation-hungry)
// than the committed manifest allows.
type Regression struct {
	Name    string
	Metric  string // "ns/op" or "allocs/op"
	Old     float64
	New     float64
	Ratio   float64
	Allowed float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed %.4g -> %.4g (%.2fx, allowed %.2fx)",
		r.Name, r.Metric, r.Old, r.New, r.Ratio, r.Allowed)
}

// Compare checks fresh against the committed manifest. A benchmark regresses
// when its ns/op exceeds tolerance× the committed value, or when its
// allocs/op exceeds the committed value by more than allocSlack (absolute).
// Benchmarks missing from either side are reported as regressions too —
// the tracked suite must not silently shrink.
func Compare(committed, fresh *Manifest, tolerance float64, allocSlack int64) []Regression {
	var regs []Regression
	freshBy := map[string]Entry{}
	for _, e := range fresh.Entries {
		freshBy[e.Name] = e
	}
	for _, old := range committed.Entries {
		cur, ok := freshBy[old.Name]
		if !ok {
			regs = append(regs, Regression{Name: old.Name, Metric: "missing", Allowed: tolerance})
			continue
		}
		if old.NsPerOp > 0 && cur.NsPerOp > tolerance*old.NsPerOp {
			regs = append(regs, Regression{
				Name: old.Name, Metric: "ns/op",
				Old: old.NsPerOp, New: cur.NsPerOp,
				Ratio: cur.NsPerOp / old.NsPerOp, Allowed: tolerance,
			})
		}
		if cur.AllocsPerOp > old.AllocsPerOp+allocSlack {
			regs = append(regs, Regression{
				Name: old.Name, Metric: "allocs/op",
				Old: float64(old.AllocsPerOp), New: float64(cur.AllocsPerOp),
				Ratio: ratioOrInf(cur.AllocsPerOp, old.AllocsPerOp), Allowed: tolerance,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs
}

func ratioOrInf(cur, old int64) float64 {
	if old == 0 {
		return math.Inf(1)
	}
	return float64(cur) / float64(old)
}
