package ristretto

import (
	"math"
	"math/rand"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/model"
	"ristretto/internal/refconv"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

func simCase(t *testing.T, seed int64, c, h, wd, kk, ks, abits, wbits int, cfg Config, stride, pad int) SimResult {
	t.Helper()
	g := workload.NewGen(seed)
	f := g.FeatureMapExact(c, h, wd, abits, cfg.Tile.Gran, 0.5, 0.7)
	w := g.KernelsExact(kk, c, ks, ks, wbits, cfg.Tile.Gran, 0.6, 0.7)
	res := SimulateConv(f, w, stride, pad, cfg)
	want := refconv.Conv(f, w, stride, pad)
	if !res.Output.Equal(want) {
		t.Fatalf("seed=%d: cycle sim output differs from reference (maxdiff %d)", seed, res.Output.MaxAbsDiff(want))
	}
	return res
}

func TestSimulateConvBitExact(t *testing.T) {
	cfgs := []Config{
		{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}},
		{Tiles: 1, Tile: TileConfig{Mults: 32, Gran: 2}},
		{Tiles: 2, Tile: TileConfig{Mults: 3, Gran: 2}, TileW: 4, TileH: 4},
		{Tiles: 2, Tile: TileConfig{Mults: 16, Gran: 1}},
		{Tiles: 2, Tile: TileConfig{Mults: 16, Gran: 3}},
		{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}, Policy: balance.WeightAct},
		{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}, Dense: true},
		{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2, FIFODepth: 1}},
	}
	for i, cfg := range cfgs {
		simCase(t, int64(i+1), 3, 8, 8, 4, 3, 8, 8, cfg, 1, 1)
	}
}

func TestSimulateConvMixedPrecision(t *testing.T) {
	for i, bits := range [][2]int{{2, 2}, {4, 4}, {2, 8}, {8, 2}, {4, 8}} {
		cfg := Config{Tiles: 2, Tile: TileConfig{Mults: 8, Gran: 2}}
		simCase(t, int64(100+i), 2, 6, 6, 3, 3, bits[0], bits[1], cfg, 1, 0)
	}
}

func TestSimulateConvRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		cfg := Config{
			Tiles: 1 + rng.Intn(4),
			Tile:  TileConfig{Mults: 1 + rng.Intn(16), Gran: atom.Granularity(rng.Intn(3) + 1), FIFODepth: 1 + rng.Intn(4)},
			TileW: 1 + rng.Intn(6), TileH: 1 + rng.Intn(6),
			Policy: balance.Policy(rng.Intn(3)),
		}
		simCase(t, int64(200+i), 1+rng.Intn(3), 4+rng.Intn(6), 4+rng.Intn(6),
			1+rng.Intn(4), 1+2*rng.Intn(2), []int{2, 4, 8}[rng.Intn(3)], []int{2, 4, 8}[rng.Intn(3)], cfg, 1+rng.Intn(2), rng.Intn(2))
	}
}

func TestCycleCountMatchesSliceAlignedPredictor(t *testing.T) {
	// With many output channels (no bank contention) the simulator must hit
	// the stall-free slice-aligned step count exactly.
	g := workload.NewGen(7)
	f := g.FeatureMapExact(1, 6, 6, 8, 2, 0.5, 0.7)
	// Every output channel gets exactly one atom per slice (value 85 =
	// 0b01010101), so each chunk holds 8 distinct channels: no contention.
	w := tensor.NewKernelStack(16, 1, 1, 1, 8)
	for k := 0; k < 16; k++ {
		w.Set(k, 0, 0, 0, 85)
	}
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 6, H: 6}), 8, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	out := tensor.NewOutputMap(16, 6, 6)
	r := SimulateIntersectionScratch(acts, ws, 1, 1, 6, 6, out, TileConfig{Mults: 8, Gran: 2, FIFODepth: 4}, NewTileScratch())
	if r.StallCycles != 0 {
		t.Fatalf("unexpected stalls: %d", r.StallCycles)
	}
	// +1: the last delivery spends one writeback cycle in the crossbar
	// after the final intersection step.
	want := SliceAlignedSteps(len(acts), ws, 8) + 1
	if r.Cycles != want {
		t.Fatalf("cycles %d != slice-aligned predictor %d", r.Cycles, want)
	}
}

func TestSliceAlignedNearEq3(t *testing.T) {
	// The paper's Eq. 3 (slice-agnostic chunking) should be close to the
	// slice-aligned schedule when S >> N.
	g := workload.NewGen(8)
	w := g.KernelsExact(32, 1, 3, 3, 8, 2, 0.7, 0.7)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	tAtoms := 500
	aligned := float64(SliceAlignedSteps(tAtoms, ws, 32))
	eq3 := float64(core.Steps(tAtoms, len(ws), 32))
	if math.Abs(aligned-eq3)/eq3 > 0.12 {
		t.Fatalf("slice-aligned %v vs Eq.3 %v differ by >12%%", aligned, eq3)
	}
}

func TestBankContentionStalls(t *testing.T) {
	// A single output channel forces every delivery into one bank; with
	// 2-bit activations every atom delivers, so an 8-wide chain must stall.
	g := workload.NewGen(9)
	f := g.FeatureMapExact(1, 8, 8, 2, 2, 1.0, 1.0)
	w := g.KernelsExact(1, 1, 3, 3, 8, 2, 1.0, 1.0)
	acts := core.CompressActs(core.FlattenTile(f, 0, tensor.Tile{W: 8, H: 8}), 2, 2, false)
	ws := core.CompressWeights(core.FlattenKernels(w, 0, nil), 8, 2, false)
	out := tensor.NewOutputMap(1, 10, 10)
	r := SimulateIntersectionScratch(acts, ws, 3, 3, 8, 8, out, TileConfig{Mults: 8, Gran: 2, FIFODepth: 2}, NewTileScratch())
	if r.StallCycles == 0 {
		t.Fatal("expected crossbar stalls with a single output channel")
	}
	// Numerics must survive the stalls.
	want := refconv.FullConv(f, w)
	if !out.Equal(want) {
		t.Fatal("stalled simulation corrupted results")
	}
}

func TestEstimateLayerMatchesCycleSim(t *testing.T) {
	// The analytic Eq. 3/5 model must track the cycle simulator within a
	// few percent on a contention-free layer.
	g := workload.NewGen(10)
	l := model.Layer{Name: "t", C: 6, H: 12, W: 12, K: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	f := g.FeatureMap(l.C, l.H, l.W, 8, 0.5)
	w := g.Kernels(l.K, l.C, l.KH, l.KW, 8, 0.5)
	cfg := Config{Tiles: 2, Tile: TileConfig{Mults: 8, Gran: 2}, Policy: balance.WeightAct}
	sim := SimulateConv(f, w, l.Stride, l.Pad, cfg)
	st := workload.StatsFromTensors(l, f, w, 2, true)
	est := EstimateLayer(st, cfg)
	ratio := float64(sim.Cycles) / float64(est.Cycles)
	if ratio < 0.95 || ratio > 1.15 {
		t.Fatalf("sim %d vs estimate %d (ratio %.3f) outside tolerance", sim.Cycles, est.Cycles, ratio)
	}
}

func TestDenseCostsMoreThanSparse(t *testing.T) {
	g := workload.NewGen(11)
	l := model.Layer{Name: "t", C: 4, H: 10, W: 10, K: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	f := g.FeatureMap(l.C, l.H, l.W, 8, 0.4)
	w := g.Kernels(l.K, l.C, l.KH, l.KW, 8, 0.4)
	st := workload.StatsFromTensors(l, f, w, 2, true)
	cfg := Config{Tiles: 2, Tile: TileConfig{Mults: 8, Gran: 2}, Policy: balance.WeightAct}
	sparse := EstimateLayer(st, cfg)
	cfg.Dense = true
	dense := EstimateLayer(st, cfg)
	if dense.Cycles <= sparse.Cycles*2 {
		t.Fatalf("dense (%d) should far exceed sparse (%d) at ~40%% density", dense.Cycles, sparse.Cycles)
	}
}

func TestBalancingImprovesLatency(t *testing.T) {
	g := workload.NewGen(12)
	l := model.Layer{Name: "t", C: 32, H: 14, W: 14, K: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	// Skewed channel densities: regenerate activations per channel.
	f := tensor.NewFeatureMap(l.C, l.H, l.W, 8)
	for c := 0; c < l.C; c++ {
		d := 0.05 + 0.9*float64(c)/float64(l.C)
		src := g.FeatureMap(1, l.H, l.W, 8, d)
		copy(f.Channel(c), src.Channel(0))
	}
	w := g.Kernels(l.K, l.C, l.KH, l.KW, 8, 0.5)
	st := workload.StatsFromTensors(l, f, w, 2, true)
	base := Config{Tiles: 8, Tile: TileConfig{Mults: 8, Gran: 2}}
	none := EstimateLayer(st, withPolicy(base, balance.None))
	wa := EstimateLayer(st, withPolicy(base, balance.WeightAct))
	if wa.Cycles > none.Cycles {
		t.Fatalf("w/a balancing (%d) worse than none (%d)", wa.Cycles, none.Cycles)
	}
	if wa.Utilization < none.Utilization {
		t.Fatalf("w/a utilization %.3f below none %.3f", wa.Utilization, none.Utilization)
	}
}

func withPolicy(c Config, p balance.Policy) Config { c.Policy = p; return c }

func TestEstimateNetwork(t *testing.T) {
	g := workload.NewGen(13)
	n := model.AlexNet()
	p := model.Uniform(n, 4)
	stats := g.NetworkStats(n, p, 2, true)
	perf := EstimateNetwork(stats, DefaultConfig())
	if perf.Cycles <= 0 || len(perf.Layers) != len(n.Layers) {
		t.Fatalf("bad network perf: %d cycles, %d layers", perf.Cycles, len(perf.Layers))
	}
	var sum int64
	for _, lp := range perf.Layers {
		sum += lp.Cycles
	}
	if sum != perf.Cycles {
		t.Fatal("network cycles must be the sum of layer cycles")
	}
	if perf.Counters.AtomMuls == 0 || perf.Counters.DRAMBytes == 0 {
		t.Fatal("counters not populated")
	}
}

func TestLowerPrecisionIsFaster(t *testing.T) {
	g := workload.NewGen(14)
	n := model.AlexNet()
	var prev int64 = -1
	for _, bits := range []int{8, 4, 2} {
		stats := g.NetworkStats(n, model.Uniform(n, bits), 2, true)
		perf := EstimateNetwork(stats, DefaultConfig())
		if prev > 0 && perf.Cycles >= prev {
			t.Fatalf("%d-bit (%d cycles) not faster than previous (%d)", bits, perf.Cycles, prev)
		}
		prev = perf.Cycles
	}
}

func TestSpatialExtension16Bit(t *testing.T) {
	// Section IV-D: wider shifters let CSC run 16-bit operands directly.
	g := workload.NewGen(15)
	f := tensor.NewFeatureMap(2, 5, 5, 16)
	for i := range f.Data {
		f.Data[i] = int32(g.SparseVector(1, 8, 0.7, false)[0]) * 257 % 65536
	}
	w := tensor.NewKernelStack(2, 2, 3, 3, 16)
	rng := rand.New(rand.NewSource(16))
	for i := range w.Data {
		if rng.Intn(2) == 0 {
			w.Data[i] = int32(rng.Intn(65535) - 32767)
		}
	}
	got, _ := core.Convolve(f, w, 1, 1, core.Config{Gran: 2, Multiplier: 16})
	want := refconv.Conv(f, w, 1, 1)
	if !got.Equal(want) {
		t.Fatalf("16-bit spatial extension mismatch (maxdiff %d)", got.MaxAbsDiff(want))
	}
}

func TestTemporalDecomposition16Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := tensor.NewFeatureMap(2, 4, 4, 16)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(1 << 16))
	}
	w := tensor.NewKernelStack(2, 2, 3, 3, 16)
	for i := range w.Data {
		w.Data[i] = int32(rng.Intn(1<<16-1) - (1<<15 - 1))
	}
	subs := TemporalDecompose(f, w)
	if len(subs) != 4 {
		t.Fatalf("%d sub-models, want 4", len(subs))
	}
	got, st := ConvolveDecomposed(subs, 1, 0, core.Config{Gran: 2, Multiplier: 8})
	want := refconv.Conv(f, w, 1, 0)
	if !got.Equal(want) {
		t.Fatalf("temporal decomposition mismatch (maxdiff %d)", got.MaxAbsDiff(want))
	}
	if st.Products == 0 {
		t.Fatal("no work recorded")
	}
}

func TestTemporalDecomposeRejectsLowPrecision(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-16-bit operands")
		}
	}()
	TemporalDecompose(tensor.NewFeatureMap(1, 2, 2, 8), tensor.NewKernelStack(1, 1, 1, 1, 8))
}
