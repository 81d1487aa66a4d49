// Package benchmanifest defines the tracked micro-benchmark suite behind the
// repo's perf trajectory (ROADMAP item 1) and the committed BENCH_*.json
// manifests that pin it.
//
// The same registry backs two consumers: `go test -bench Manifest .` (the
// bench_test.go wrapper at the repo root) and `ristretto-bench
// -bench-manifest`, which runs every entry through testing.Benchmark, writes
// a ristretto.bench-manifest/v1 JSON document, and optionally compares it
// against a committed manifest with a regression tolerance (the CI gate).
// Benchmark names are stable identifiers: a manifest diff across PRs is the
// perf trajectory, so entries may be re-implemented (the hot path they
// measure is the contract) but not renamed or dropped casually.
package benchmanifest

import (
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// Benchmark is one named entry of the tracked suite.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// Registry returns the tracked micro-benchmark suite. Every entry reports
// allocations; the tile/core simulator entries are the ones the ~zero
// allocs/op acceptance gate watches.
func Registry() []Benchmark {
	return []Benchmark{
		{Name: "tile/intersect_16x16", Fn: benchTileIntersect},
		{Name: "tile/intersect_contended", Fn: benchTileContended},
		{Name: "core/sim_layer_8x8x4", Fn: benchCoreSimLayer},
		{Name: "core/sim_serve_layer", Fn: benchCoreSimServe},
		{Name: "core/sim_serve_reshape", Fn: benchCoreSimReshape},
		{Name: "core/sim_serve_cold", Fn: benchCoreSimCold},
		{Name: "core/act_stream_16x16", Fn: benchActStream},
		{Name: "core/weight_stream_16k", Fn: benchWeightStream},
		{Name: "core/weight_stream_serve", Fn: benchWeightStreamServe},
		{Name: "atom/decompose_sweep_8b", Fn: benchAtomDecompose},
		{Name: "workload/network_stats_alexnet", Fn: benchNetworkStats(model.AlexNet())},
		{Name: "workload/network_stats_vgg16", Fn: benchNetworkStats(model.VGG16())},
		{Name: "workload/network_stats_resnet50", Fn: benchNetworkStats(model.ResNet50())},
		{Name: "workload/layer_operands_serve", Fn: benchLayerOperandsServe},
		{Name: "workload/stream_walk_vgg16", Fn: benchStreamWalk(model.VGG16())},
	}
}

// benchTileIntersect is the canonical tile-simulator hot path: a 16×16 tile
// against 16 3×3 kernels at realistic density, one intersection per
// iteration, output buffer and scratch reused across iterations.
func benchTileIntersect(b *testing.B) {
	g := workload.NewGen(2)
	f := g.FeatureMapExact(1, 16, 16, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(16, 1, 3, 3, 8, 2, 0.5, 0.7)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 16, H: 16}), 8, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	cfg := ristretto.TileConfig{Mults: 32, Gran: 2, FIFODepth: 4}
	out := tensor.NewOutputMap(16, 18, 18)
	scratch := ristretto.NewTileScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateIntersectionScratch(acts, ws, 3, 3, 16, 16, out, cfg, scratch)
	}
}

// benchTileContended forces crossbar back-pressure: a single output channel
// funnels every delivery into one accumulate bank behind shallow FIFOs, so
// the stall/conflict paths dominate.
func benchTileContended(b *testing.B) {
	g := workload.NewGen(9)
	f := g.FeatureMapExact(1, 12, 12, 2, 2, 1.0, 1.0)
	w := g.KernelsExact(1, 1, 3, 3, 8, 2, 1.0, 1.0)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 12, H: 12}), 2, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	cfg := ristretto.TileConfig{Mults: 8, Gran: 2, FIFODepth: 2}
	out := tensor.NewOutputMap(1, 14, 14)
	scratch := ristretto.NewTileScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateIntersectionScratch(acts, ws, 3, 3, 12, 12, out, cfg, scratch)
	}
}

// benchCoreSimLayer runs the whole-core simulator on a small layer
// (4 tiles × 8 multipliers on 8×8 planes), including stream building and
// balancing.
func benchCoreSimLayer(b *testing.B) {
	g := workload.NewGen(52)
	f := g.FeatureMapExact(4, 8, 8, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(4, 4, 3, 3, 8, 2, 0.5, 0.7)
	cfg := ristretto.CoreSimConfig{Tiles: 4, Tile: ristretto.TileConfig{Mults: 8, Gran: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateCore(f, w, 1, 1, cfg)
	}
}

// benchCoreSimServe is the cycle-sim cost one default /v1/sim request pays:
// ResNet-18 conv4_2 at 4 bits and scale 16 (4×4 planes, 256 channels in and
// out), operands drawn the way the daemon draws them, on its default shape
// of 8 tiles × 32 multipliers with w/a balancing. Stream building and
// balancing are timed; operand synthesis is not.
func benchCoreSimServe(b *testing.B) {
	f, w, l := serveLayer(b)
	cfg := ristretto.CoreSimConfig{Tiles: 8, Tile: ristretto.TileConfig{Mults: 32, Gran: 2}, Policy: balance.WeightAct}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ristretto.SimulateCore(f, w, l.Stride, l.Pad, cfg)
	}
}

// benchCoreSimReshape is what a /v1/sim request that changes only the core
// shape pays once the daemon holds its layer: the per-shape step
// (CoreLayer.Run: balancing and drain placement) at 16 tiles on the
// core/sim_serve_layer layer, prepared once outside the timer.
func benchCoreSimReshape(b *testing.B) {
	f, w, l := serveLayer(b)
	layer := ristretto.PrepareCore(f, w, l.Stride, l.Pad, ristretto.CoreSimConfig{Tile: ristretto.TileConfig{Mults: 32, Gran: 2}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Run(16, balance.WeightAct)
	}
}

// benchCoreSimCold is what a cold /v1/sim request pays in-process on the
// core/sim_serve_layer layer: the operand draw, then the per-channel pass
// and the per-shape step on the daemon's default shape.
func benchCoreSimCold(b *testing.B) {
	cfg := ristretto.CoreSimConfig{Tile: ristretto.TileConfig{Mults: 32, Gran: 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, w, l := serveLayer(b)
		ristretto.PrepareCore(f, w, l.Stride, l.Pad, cfg).Run(8, balance.WeightAct)
	}
}

// serveLayer draws the operands of the daemon's default /v1/sim layer,
// ResNet-18 conv4_2 at 4 bits and scale 16, the way the daemon draws them.
func serveLayer(b *testing.B) (*tensor.FeatureMap, *tensor.KernelStack, model.Layer) {
	l, draw := serveDraw(b)
	f, w := draw()
	return f, w, l
}

// serveDraw returns the daemon's default /v1/sim layer and a function that
// draws its operands from a fresh generator.
func serveDraw(b *testing.B) (model.Layer, func() (*tensor.FeatureMap, *tensor.KernelStack)) {
	n := model.ResNet18()
	l, err := experiments.NewQuickBench(1, 16).Scaled(n).Layer("conv4_2")
	if err != nil {
		b.Fatal(err)
	}
	seed := workload.DeriveSeed(1, "serve-sim", n.Name, l.Name, "4b")
	t := workload.EvalTargets(n.Name, 4, 4)
	return l, func() (*tensor.FeatureMap, *tensor.KernelStack) {
		return workload.NewGen(seed).LayerOperands(l, 4, 4, t)
	}
}

// benchLayerOperandsServe is the operand draw alone of a cold /v1/sim
// request on the core/sim_serve_layer layer, which core/sim_serve_cold
// times together with the simulation.
func benchLayerOperandsServe(b *testing.B) {
	_, draw := serveDraw(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		draw()
	}
}

// benchActStream measures building one tile's compressed activation atom
// stream from the feature map — now the fused bitmap-word zero-skipping
// builder (the hot path measured is the contract, not the call).
func benchActStream(b *testing.B) {
	g := workload.NewGen(4)
	f := g.FeatureMapExact(1, 16, 16, 8, 2, 0.5, 0.7)
	tl := tensor.Tile{W: 16, H: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acts := core.StreamTileActs(f, 0, tl, 2)
		if len(acts) == 0 {
			b.Fatal("empty stream")
		}
	}
}

// benchWeightStream measures building one input channel's shuffled static
// weight stream (flatten + atomize + slice-major channel-first shuffle).
func benchWeightStream(b *testing.B) {
	g := workload.NewGen(5)
	w := g.KernelsExact(64, 1, 3, 3, 8, 2, 0.6, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
		if len(ws) == 0 {
			b.Fatal("empty stream")
		}
	}
}

// benchWeightStreamServe is the weight-stream build of one
// core/sim_serve_layer op: every input channel's static stream of that
// layer's kernel, built by one streamer into one reused buffer.
func benchWeightStreamServe(b *testing.B) {
	_, w, _ := serveLayer(b)
	var ws core.WeightStreamer
	var buf []core.WeightAtom
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < w.C; c++ {
			buf = ws.AppendStream(buf[:0], w, c, 2, false)
		}
	}
}

// benchAtomDecompose sweeps every 8-bit magnitude through the atomizer
// decomposition — the innermost stream-building kernel.
func benchAtomDecompose(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); v < 256; v++ {
			atom.Decompose(v, 8, 2)
		}
	}
}

// benchNetworkStats measures workload synthesis, the layer that dominates a
// full run and a cold /v1/model: every layer of n drawn, quantized, pruned
// and measured as Bench.Stats does it, at scale 16, 4-bit, 2-bit atoms and
// NAF term counting. Each op starts from a fresh generator.
func benchNetworkStats(n *model.Network) func(b *testing.B) {
	sn := experiments.NewQuickBench(1, 16).Scaled(n)
	p := model.Uniform(sn, 4)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if st := workload.NewGen(1).NetworkStats(sn, p, 2, true); len(st) != len(sn.Layers) {
				b.Fatal("missing layers")
			}
		}
	}
}

// benchStreamWalk measures synthesis's serial floor: the walk alone through
// the random stream over as many draws as workload/network_stats_* draws
// for n (every activation and weight of every layer at scale 16), with no
// coding, pruning or metering. Each op starts from a fresh generator.
func benchStreamWalk(n *model.Network) func(b *testing.B) {
	draws := 0
	for _, l := range experiments.NewQuickBench(1, 16).Scaled(n).Layers {
		draws += l.C*l.H*l.W + int(l.Weights())
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workload.NewGen(1).Walk(draws)
		}
	}
}
