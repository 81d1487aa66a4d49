package ristretto

import (
	"math/rand"
	"testing"

	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// The two cycle simulators model the same microarchitecture at different
// scopes: SimulateConv sums isolated per-intersection runs, SimulateCore
// runs every tile with load latency and output-port contention. On everything that is scope-independent — work counts, stall
// definition, crossbar conflicts and buffer traffic — they follow one shared
// accounting convention and must agree EXACTLY. This suite pins that parity;
// any divergence is an accounting regression in one of the two.

// sharedCounters extracts the energy counters both simulators charge under
// the unified convention.
func sharedCounters(c energy.Counters) map[string]int64 {
	return map[string]int64{
		"AtomMuls":       c.AtomMuls,
		"AtomizerOps":    c.AtomizerOps,
		"InputBufBytes":  c.InputBufBytes,
		"WeightBufBytes": c.WeightBufBytes,
		"AccBufBytes":    c.AccBufBytes,
		"OutputBufBytes": c.OutputBufBytes,
	}
}

func assertParity(t *testing.T, label string, conv SimResult, cs CoreSimResult) {
	t.Helper()
	if conv.Products != cs.Products {
		t.Errorf("%s: Products: tile-sim %d, core-sim %d", label, conv.Products, cs.Products)
	}
	if conv.Deliveries != cs.Deliveries {
		t.Errorf("%s: Deliveries: tile-sim %d, core-sim %d", label, conv.Deliveries, cs.Deliveries)
	}
	if conv.Conflicts != cs.Conflicts {
		t.Errorf("%s: Conflicts: tile-sim %d, core-sim %d", label, conv.Conflicts, cs.Conflicts)
	}
	if conv.Stalls != cs.Stalls {
		t.Errorf("%s: Stalls: tile-sim %d, core-sim %d (stall definitions diverged)", label, conv.Stalls, cs.Stalls)
	}
	want, got := sharedCounters(conv.Counters), sharedCounters(cs.Counters)
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: Counters.%s: tile-sim %d, core-sim %d", label, name, w, g)
		}
	}
	if len(conv.Output.Data) != len(cs.Output.Data) {
		t.Fatalf("%s: output shape diverged", label)
	}
	for i := range conv.Output.Data {
		if conv.Output.Data[i] != cs.Output.Data[i] {
			t.Fatalf("%s: output[%d]: tile-sim %d, core-sim %d", label, i, conv.Output.Data[i], cs.Output.Data[i])
		}
	}
}

// TestTileCoreCounterParity sweeps randomized sparse layers through both
// simulators with matched configurations and requires exact agreement on
// every shared counter.
func TestTileCoreCounterParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7001))
	for i := 0; i < 12; i++ {
		g := workload.NewGen(int64(7100 + i))
		c := 1 + rng.Intn(4)
		h := 3 + rng.Intn(10)
		w := 3 + rng.Intn(10)
		k := 1 + rng.Intn(6)
		ks := 1 + 2*rng.Intn(2) // 1 or 3
		f := g.FeatureMap(c, h, w, 8, 0.2+0.6*rng.Float64())
		ws := g.Kernels(k, c, ks, ks, 8, 0.2+0.6*rng.Float64())
		tileCfg := TileConfig{
			Mults:     []int{1, 4, 8, 16}[rng.Intn(4)],
			Gran:      2,
			FIFODepth: 1 + rng.Intn(4),
		}
		tiles := 1 + rng.Intn(3)
		tw, th := 0, 0
		if rng.Intn(2) == 0 {
			tw, th = 1+rng.Intn(w), 1+rng.Intn(h)
		}
		conv := SimulateConv(f, ws, 1, ks/2, Config{Tiles: tiles, Tile: tileCfg, TileW: tw, TileH: th, Policy: balance.WeightAct})
		cs := SimulateCore(f, ws, 1, ks/2, CoreSimConfig{Tiles: tiles, Tile: tileCfg, TileW: tw, TileH: th, Policy: balance.WeightAct})
		assertParity(t, "randomized", conv, cs)
	}
}

// TestTileCoreParityDegenerate pins the parity on shapes that exercise edge
// paths: single-pixel maps, single output channel (maximum crossbar
// contention), unit FIFO depth, unit multiplier count, all-zero operands.
func TestTileCoreParityDegenerate(t *testing.T) {
	g := workload.NewGen(7200)
	cases := []struct {
		name   string
		f      *tensor.FeatureMap
		w      *tensor.KernelStack
		tile   TileConfig
		tiles  int
		tw, th int
	}{
		{name: "1x1_map", f: g.FeatureMap(2, 1, 1, 8, 1), w: g.Kernels(3, 2, 1, 1, 8, 1), tile: TileConfig{Mults: 4, Gran: 2}, tiles: 2},
		{name: "single_out_channel", f: g.FeatureMap(1, 6, 6, 8, 0.8), w: g.Kernels(1, 1, 3, 3, 8, 0.9), tile: TileConfig{Mults: 16, Gran: 2, FIFODepth: 1}, tiles: 1},
		{name: "unit_mults", f: g.FeatureMap(2, 4, 4, 8, 0.5), w: g.Kernels(2, 2, 3, 3, 8, 0.5), tile: TileConfig{Mults: 1, Gran: 2}, tiles: 1},
		{name: "unit_fifo_tiled", f: g.FeatureMap(3, 8, 8, 8, 0.6), w: g.Kernels(2, 3, 3, 3, 8, 0.6), tile: TileConfig{Mults: 8, Gran: 2, FIFODepth: 1}, tiles: 2, tw: 3, th: 3},
		{name: "zero_acts", f: tensor.NewFeatureMap(2, 4, 4, 8), w: g.Kernels(2, 2, 3, 3, 8, 0.5), tile: TileConfig{Mults: 8, Gran: 2}, tiles: 2},
		{name: "gran1", f: g.FeatureMap(2, 5, 5, 8, 0.5), w: g.Kernels(2, 2, 3, 3, 8, 0.5), tile: TileConfig{Mults: 8, Gran: 1, FIFODepth: 2}, tiles: 2},
	}
	for _, tc := range cases {
		conv := SimulateConv(tc.f, tc.w, 1, 0, Config{Tiles: tc.tiles, Tile: tc.tile, TileW: tc.tw, TileH: tc.th, Policy: balance.WeightAct})
		cs := SimulateCore(tc.f, tc.w, 1, 0, CoreSimConfig{Tiles: tc.tiles, Tile: tc.tile, TileW: tc.tw, TileH: tc.th, Policy: balance.WeightAct})
		assertParity(t, tc.name, conv, cs)
	}
}

// runSingleJob drives one handcrafted intersection through SimulateCore's
// per-channel pass as a one-channel layer and returns the result of its
// per-shape step on a single compute tile.
func runSingleJob(job tileJob, cfg TileConfig, loadWidth, drainWidth int) CoreSimResult {
	ccfg := CoreSimConfig{Tiles: 1, Tile: cfg, LoadWidth: loadWidth, DrainWidth: drainWidth}.withDefaults()
	p := newCorePass(ccfg, 1, 1)
	var tl timeline
	var sum CoreSimResult
	s := NewTileScratch()
	s.job(&tl, &sum, &ccfg, nil, 0, job.tile, job.full, nil, job.acts, job.weights)
	s.release()
	p.finish(0, tl, &sum, len(job.acts), len(job.weights))
	return p.l.Run(1, balance.None)
}

// TestDrainPhaseStallsCounted pins the unified stall definition: FIFO
// back-pressure cycles count whether the activation stream is still feeding
// or already consumed. The crafted stream (two single-atom activations, one
// output channel, unit-depth FIFOs) only stalls AFTER the last atom entered
// the chain — the old `!done` guard counted zero stalls here.
func TestDrainPhaseStallsCounted(t *testing.T) {
	acts := []core.ActAtom{
		{Mag: 1, Last: true, X: 0, Y: 0},
		{Mag: 1, Last: true, X: 1, Y: 0},
	}
	// Three weights, same slice, same output channel: every Last delivery
	// targets the same bank, and with depth-1 FIFOs deferred deliveries
	// block the advance.
	weights := []core.WeightAtom{
		{Mag: 1, K: 0, X: 0, Y: 0},
		{Mag: 1, K: 0, X: 0, Y: 0},
		{Mag: 1, K: 0, X: 0, Y: 0},
	}
	cfg := TileConfig{Mults: 4, Gran: 2, FIFODepth: 1}
	out := tensor.NewOutputMap(1, 1, 2)
	r := SimulateIntersectionScratch(acts, weights, 1, 1, 2, 1, out, cfg, NewTileScratch())
	if r.Conflicts == 0 {
		t.Fatalf("crafted stream produced no crossbar conflicts")
	}
	if r.StallCycles == 0 {
		t.Fatalf("drain-phase FIFO back-pressure produced zero StallCycles: stalls after stream consumption are not being counted")
	}
	// The same job through the core simulator's per-tile path must report the same
	// stalls (and conflicts) — the unified definition.
	job := tileJob{acts: acts, weights: weights, tile: tensor.Tile{W: 2, H: 1}, full: tensor.NewOutputMap(1, 1, 2)}
	cs := runSingleJob(job, cfg, 4, 8)
	if cs.Stalls != r.StallCycles {
		t.Fatalf("core-sim Stalls %d != tile-sim StallCycles %d", cs.Stalls, r.StallCycles)
	}
	if cs.Conflicts != r.Conflicts {
		t.Fatalf("core-sim Conflicts %d != tile-sim Conflicts %d", cs.Conflicts, r.Conflicts)
	}
}

// TestEmptyBankDrainSkipped pins the phantom-drain fix: a slice whose
// products are all discarded by the comp module leaves the accumulate bank
// empty, and the tile must not occupy the output port (or charge output
// traffic) for a zero-entry drain.
func TestEmptyBankDrainSkipped(t *testing.T) {
	acts := []core.ActAtom{
		{Mag: 1, Last: true, X: 0, Y: 0},
		{Mag: 2, Last: true, X: 1, Y: 0},
	}
	// Kernel coordinates beyond the 1×1 window push every product out of
	// the full-conv range, so the comp module drops all deliveries.
	weights := []core.WeightAtom{
		{Mag: 1, K: 0, X: 7, Y: 7},
		{Mag: 1, K: 0, X: 7, Y: 7},
	}
	job := tileJob{acts: acts, weights: weights, tile: tensor.Tile{W: 2, H: 1}, full: tensor.NewOutputMap(1, 1, 2)}
	cfg := TileConfig{Mults: 4, Gran: 2, FIFODepth: 2}
	cs := runSingleJob(job, cfg, 4, 8)
	if cs.Deliveries != 0 {
		t.Fatalf("expected all deliveries dropped, got %d", cs.Deliveries)
	}
	if cs.Counters.OutputBufBytes != 0 || cs.Counters.AccBufBytes != 0 {
		t.Fatalf("empty-bank drain charged traffic: out=%dB acc=%dB", cs.Counters.OutputBufBytes, cs.Counters.AccBufBytes)
	}
	// Exact cycle count: the static load plus a stall-free stream pass —
	// t feed cycles, then m flush cycles until the chain-empty check sees
	// the last register clear — and nothing else: no phantom output-port
	// cycle for the zero-entry drain.
	loadCycles := int64(1) // ceil(2 atoms / loadWidth 4)
	stream := int64(len(acts) + len(weights))
	if want := loadCycles + stream; cs.Cycles != want {
		t.Fatalf("empty-bank job took %d cycles, want %d (load %d + stream %d, no drain cycle)", cs.Cycles, want, loadCycles, stream)
	}
	if cs.Stalls != 0 || cs.DrainWait != 0 {
		t.Fatalf("unexpected stalls %d / drain-wait %d on delivery-free job", cs.Stalls, cs.DrainWait)
	}
}

// TestScratchReuseIsClean runs two very different intersections through one
// scratch back to back and checks the second result is identical to a
// fresh-scratch run — the all-drained invariant between runs. Reused, the
// scratch must also keep the promise of an allocation-free call.
func TestScratchReuseIsClean(t *testing.T) {
	g := workload.NewGen(7300)
	f1 := g.FeatureMap(1, 9, 9, 8, 0.9)
	w1 := g.Kernels(5, 1, 3, 3, 8, 0.9)
	f2 := g.FeatureMap(1, 4, 4, 8, 0.4)
	w2 := g.Kernels(2, 1, 1, 1, 8, 0.4)
	cfg := TileConfig{Mults: 8, Gran: 2, FIFODepth: 2}

	stream := func(f *tensor.FeatureMap, w *tensor.KernelStack) ([]core.ActAtom, []core.WeightAtom) {
		return core.StreamTileActs(f, 0, tensor.Tile{W: f.W, H: f.H}, cfg.Gran),
			core.CompressWeights(core.FlattenKernels(w, 0, nil), w.Bits, cfg.Gran, false)
	}
	a1, s1 := stream(f1, w1)
	a2, s2 := stream(f2, w2)

	s := NewTileScratch()
	big := tensor.NewOutputMap(w1.K, f1.H+w1.KH-1, f1.W+w1.KW-1)
	SimulateIntersectionScratch(a1, s1, w1.KH, w1.KW, f1.W, f1.H, big, cfg, s)

	reused := tensor.NewOutputMap(w2.K, f2.H+w2.KH-1, f2.W+w2.KW-1)
	rReused := SimulateIntersectionScratch(a2, s2, w2.KH, w2.KW, f2.W, f2.H, reused, cfg, s)
	fresh := tensor.NewOutputMap(w2.K, f2.H+w2.KH-1, f2.W+w2.KW-1)
	rFresh := SimulateIntersectionScratch(a2, s2, w2.KH, w2.KW, f2.W, f2.H, fresh, cfg, NewTileScratch())

	if rReused != rFresh {
		t.Fatalf("scratch reuse changed the result:\nreused %+v\nfresh  %+v", rReused, rFresh)
	}
	for i := range fresh.Data {
		if fresh.Data[i] != reused.Data[i] {
			t.Fatalf("scratch reuse corrupted output[%d]: %d vs %d", i, reused.Data[i], fresh.Data[i])
		}
	}

	// On the warmed scratch, neither intersection allocates.
	allocs := testing.AllocsPerRun(20, func() {
		SimulateIntersectionScratch(a1, s1, w1.KH, w1.KW, f1.W, f1.H, big, cfg, s)
		SimulateIntersectionScratch(a2, s2, w2.KH, w2.KW, f2.W, f2.H, reused, cfg, s)
	})
	if allocs != 0 {
		t.Fatalf("two intersections on a warmed scratch allocated %v times per run, want 0", allocs)
	}
}
