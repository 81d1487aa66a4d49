package benchmanifest

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func manifestPair() (*Manifest, *Manifest) {
	committed := New("test")
	committed.Entries = []Entry{
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "b", NsPerOp: 2000, AllocsPerOp: 10},
	}
	fresh := New("test")
	fresh.Entries = []Entry{
		{Name: "a", NsPerOp: 1100, AllocsPerOp: 0},
		{Name: "b", NsPerOp: 2100, AllocsPerOp: 12},
	}
	return committed, fresh
}

func TestCompareWithinTolerance(t *testing.T) {
	committed, fresh := manifestPair()
	if regs := Compare(committed, fresh, 1.25, 16); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareFlagsSlowdown(t *testing.T) {
	committed, fresh := manifestPair()
	fresh.Entries[0].NsPerOp = 1300 // 1.3x > 1.25x
	regs := Compare(committed, fresh, 1.25, 16)
	if len(regs) != 1 || regs[0].Name != "a" || regs[0].Metric != "ns/op" {
		t.Fatalf("want one ns/op regression on a, got %v", regs)
	}
}

func TestCompareFlagsAllocGrowth(t *testing.T) {
	committed, fresh := manifestPair()
	fresh.Entries[1].AllocsPerOp = 100 // 10 -> 100 exceeds slack 16
	regs := Compare(committed, fresh, 1.25, 16)
	if len(regs) != 1 || regs[0].Name != "b" || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression on b, got %v", regs)
	}
}

func TestCompareFlagsMissingEntry(t *testing.T) {
	committed, fresh := manifestPair()
	fresh.Entries = fresh.Entries[:1]
	regs := Compare(committed, fresh, 1.25, 16)
	if len(regs) != 1 || regs[0].Name != "b" || regs[0].Metric != "missing" {
		t.Fatalf("want b reported missing, got %v", regs)
	}
}

func TestComputeSpeedupGeomean(t *testing.T) {
	m := New("test")
	m.Entries = []Entry{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 100},
		{Name: "unmatched", NsPerOp: 1},
	}
	m.Baseline = []Entry{
		{Name: "a", NsPerOp: 200}, // 2x
		{Name: "b", NsPerOp: 800}, // 8x
	}
	m.ComputeSpeedup()
	if want := 4.0; math.Abs(m.GeomeanSpeedup-want) > 1e-9 {
		t.Fatalf("geomean = %v, want %v", m.GeomeanSpeedup, want)
	}
}

// TestMedianSample: an entry is the sample with the median ns/op, with that
// sample's allocations, bytes and iterations, whatever order the samples
// ran in.
func TestMedianSample(t *testing.T) {
	sample := func(ns, allocs, bytes int64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: 10, T: time.Duration(10 * ns), MemAllocs: uint64(10 * allocs), MemBytes: uint64(10 * bytes)}
	}
	rs := []testing.BenchmarkResult{sample(900, 1, 10), sample(400, 2, 20), sample(700, 3, 30), sample(100, 4, 40), sample(600, 5, 50)}
	want := Entry{Name: "x", NsPerOp: 600, AllocsPerOp: 5, BytesPerOp: 50, Iterations: 10, Samples: 5}
	if got := median("x", rs); got != want {
		t.Fatalf("median of five = %+v, want %+v", got, want)
	}
	if got := median("x", rs[:1]); got.NsPerOp != 900 || got.AllocsPerOp != 1 || got.Samples != 1 {
		t.Fatalf("median of one = %+v, want the sample itself", got)
	}
}

// TestLoadSingleSampleManifest: manifests written before entries recorded
// their sample count still load, with Samples zero.
func TestLoadSingleSampleManifest(t *testing.T) {
	m, err := Load(filepath.Join("..", "..", "BENCH_022.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) == 0 || m.Entries[0].Samples != 0 || m.Entries[0].NsPerOp <= 0 {
		t.Fatalf("BENCH_022.json entries %+v", m.Entries)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	m := New("test")
	m.Entries = []Entry{{Name: "a", NsPerOp: 123.5, AllocsPerOp: 1, BytesPerOp: 2, Iterations: 7, Samples: 5}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Entries) != 1 || got.Entries[0] != m.Entries[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	m := New("test")
	m.Schema = "something-else/v9"
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestRegistryNamesStable pins the tracked suite: names are stable
// identifiers (the perf trajectory diffs across manifests), so a rename or
// drop must be a conscious decision that updates this list too.
func TestRegistryNamesStable(t *testing.T) {
	want := []string{
		"tile/intersect_16x16",
		"tile/intersect_contended",
		"core/sim_layer_8x8x4",
		"core/sim_serve_layer",
		"core/sim_serve_reshape",
		"core/sim_serve_cold",
		"core/act_stream_16x16",
		"core/weight_stream_16k",
		"core/weight_stream_serve",
		"atom/decompose_sweep_8b",
		"workload/network_stats_alexnet",
		"workload/network_stats_vgg16",
		"workload/network_stats_resnet50",
		"workload/layer_operands_serve",
		"workload/stream_walk_vgg16",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, bm := range reg {
		if bm.Name != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, bm.Name, want[i])
		}
		if bm.Fn == nil {
			t.Fatalf("registry[%d] %q has nil Fn", i, bm.Name)
		}
	}
}
