// Package bench hosts the benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (regenerating the same rows at
// reduced scale; run cmd/ristretto-bench -scale 1 for paper-scale output),
// plus micro-benchmarks of the computational kernels.
package bench

import (
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/baselines/bitfusion"
	"ristretto/internal/baselines/laconic"
	"ristretto/internal/baselines/snap"
	"ristretto/internal/baselines/sparten"
	"ristretto/internal/benchmanifest"
	"ristretto/internal/core"
	"ristretto/internal/experiments"
	"ristretto/internal/ristretto"
	"ristretto/internal/sparse"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// quick returns a reduced-scale bench whose stats cache persists across
// b.N iterations, so steady-state iterations measure the analysis itself.
func quick() *experiments.Bench {
	b := experiments.NewQuickBench(1, 8)
	b.Nets = []string{"AlexNet", "ResNet-18"}
	return b
}

func BenchmarkFigure1(b *testing.B) {
	eb := experiments.NewQuickBench(1, 8)
	for i := 0; i < b.N; i++ {
		if r := eb.Figure1(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	eb := experiments.NewQuickBench(1, 8)
	for i := 0; i < b.N; i++ {
		if r := eb.Figure4(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure12(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure13(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure14(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure15(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure16(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure17(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure17(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure18(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure18(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure19a(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure19a(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure19b(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.Figure19b(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.TableIV(); len(r.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.TableVI(); len(r.Rows) == 0 {
			b.Fatal("bad table")
		}
	}
}

// --- kernel micro-benchmarks ---

func BenchmarkAtomDecompose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		atom.Decompose(int32(i%127), 8, 2)
	}
}

func BenchmarkNAFTermCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		atom.TermCount(int32(i % 255))
	}
}

func BenchmarkCSCIntersect(b *testing.B) {
	g := workload.NewGen(1)
	f := g.FeatureMapExact(1, 16, 16, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(16, 1, 3, 3, 8, 2, 0.5, 0.7)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 16, H: 16}), 8, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.NewOutputMap(16, 18, 18)
		core.Intersect(acts, ws, 32, 3, 3, 16, 16, out)
	}
}

func BenchmarkCycleSimTile(b *testing.B) {
	g := workload.NewGen(2)
	f := g.FeatureMapExact(1, 16, 16, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(16, 1, 3, 3, 8, 2, 0.5, 0.7)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 16, H: 16}), 8, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	cfg := ristretto.TileConfig{Mults: 32, Gran: 2, FIFODepth: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.NewOutputMap(16, 18, 18)
		ristretto.SimulateIntersectionScratch(acts, ws, 3, 3, 16, 16, out, cfg, ristretto.NewTileScratch())
	}
}

func BenchmarkSparTenInnerJoin(b *testing.B) {
	g := workload.NewGen(3)
	a := g.SparseVector(512, 8, 0.4, false)
	w := g.SparseVector(512, 8, 0.5, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparten.InnerProduct(a, w)
	}
}

func BenchmarkBitmapMatch(b *testing.B) {
	g := workload.NewGen(4)
	av := sparse.EncodeBitmap(g.SparseVector(1024, 8, 0.4, false), 8)
	wv := sparse.EncodeBitmap(g.SparseVector(1024, 8, 0.5, true), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.MatchCount(av, wv)
	}
}

func BenchmarkLaconicTile(b *testing.B) {
	g := workload.NewGen(5)
	cfg := laconic.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		laconic.SimulateTile(g, cfg, 8, 0.5)
	}
}

func BenchmarkBalanceAssign(b *testing.B) {
	g := workload.NewGen(6)
	costs := make([]int64, 512)
	watoms := make([]int, 512)
	for i := range costs {
		costs[i] = int64(g.SparseVector(1, 8, 1, false)[0]) + 1
		watoms[i] = int(costs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balance.Assign(balance.WeightAct, costs, watoms, 32)
	}
}

func BenchmarkAnalyticLayerEstimate(b *testing.B) {
	eb := quick()
	stats := eb.Stats(eb.Networks()[1], "4b", 2)
	cfg := ristretto.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stats {
			ristretto.EstimateLayer(st, cfg)
		}
	}
}

func BenchmarkBitFusionEstimate(b *testing.B) {
	eb := quick()
	stats := eb.Stats(eb.Networks()[1], "4b", 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitfusion.EstimateNetwork(stats, bitfusion.DefaultConfig())
	}
}

// --- extension-study benchmarks (ablations DESIGN.md calls out) ---

func BenchmarkExtTableITrio(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtTableI(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtFigure3Strawman(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtFigure3(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtStrideAblation(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtStride(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtFIFODepthAblation(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtFIFO(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtFormatStudy(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtFormats(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtHighPrecisionModes(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtHighPrecision(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtBalancingAblation(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtBalancingNetworks(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtMultiCoreScaling(b *testing.B) {
	eb := quick()
	for i := 0; i < b.N; i++ {
		if r := eb.ExtMultiCore(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkSNAPMatch(b *testing.B) {
	g := workload.NewGen(7)
	a := g.SparseVector(512, 8, 0.4, false)
	w := g.SparseVector(512, 8, 0.5, true)
	var ai, av, wi, wv []int32
	for i, x := range a {
		if x != 0 {
			ai = append(ai, int32(i))
			av = append(av, x)
		}
	}
	for i, x := range w {
		if x != 0 {
			wi = append(wi, int32(i))
			wv = append(wv, x)
		}
	}
	cfg := snap.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.MatchVectors(ai, av, wi, wv, cfg)
	}
}

func BenchmarkSparTenLayerSim(b *testing.B) {
	g := workload.NewGen(8)
	f := g.FeatureMapExact(4, 10, 10, 8, 2, 0.5, 0.8)
	w := g.KernelsExact(8, 4, 3, 3, 8, 2, 0.5, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparten.SimulateLayer(f, w, 1, 1, sparten.Config{CUs: 4})
	}
}

// BenchmarkManifest runs the tracked micro-benchmark registry — the same
// entries `ristretto-bench -bench-manifest` measures and commits to the
// BENCH_*.json perf-trajectory manifests — under the standard harness:
//
//	go test -bench 'Manifest/' -benchmem .
func BenchmarkManifest(b *testing.B) {
	for _, bm := range benchmanifest.Registry() {
		b.Run(bm.Name, bm.Fn)
	}
}

// TestBenchHarnessSmoke keeps `go test` (without -bench) meaningful for this
// package: the harness must produce non-empty results for one cheap table
// and one cheap figure.
func TestBenchHarnessSmoke(t *testing.T) {
	if r := experiments.TableIV(); len(r.Rows) != 4 {
		t.Fatalf("Table IV rows = %d", len(r.Rows))
	}
	if r := quick().Figure19a(); len(r.Rows) != 3 {
		t.Fatalf("Figure 19a rows = %d", len(r.Rows))
	}
}
