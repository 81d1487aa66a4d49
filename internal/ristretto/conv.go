package ristretto

import (
	"ristretto/internal/balance"
	"ristretto/internal/energy"
	"ristretto/internal/refconv"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
)

// Config parameterizes a Ristretto compute core.
type Config struct {
	Tiles  int // M: parallel compute tiles
	Tile   TileConfig
	TileW  int // feature-map tile width (0 = whole plane)
	TileH  int // feature-map tile height (0 = whole plane)
	Policy balance.Policy
	Dense  bool // Ristretto-ns: keep zero atoms and zero values in streams

	// NaiveStride charges strided layers the full stride-1 intersection
	// cost (Section IV-C3: ineffectual outputs are computed and discarded).
	// By default the analytic model assumes the stride-phase decomposition
	// — inputs and kernels split into stride² coordinate phases convolved
	// independently — which only performs effectual work and reproduces the
	// paper's Ristretto-ns ≈ Bit Fusion parity on strided networks.
	NaiveStride bool

	// WeightBufCap is the on-chip weight-buffer capacity in bytes (0 =
	// default 256 KiB, sized to Table VI's 0.302 mm² weight buffer). When a
	// layer's compressed weights exceed it, they re-stream from DRAM once
	// per spatial tile pass instead of being fetched once.
	WeightBufCap int64

	// DRAMBytesPerCycle bounds layer latency by off-chip bandwidth
	// (roofline): cycles = max(compute, DRAMBytes/bandwidth). Zero means
	// unbounded (compute-only, the paper's accounting).
	DRAMBytesPerCycle float64
}

// DefaultConfig is the paper's single-core configuration versus Bit Fusion:
// 32 compute tiles × 32 two-bit multipliers, w/a balancing.
func DefaultConfig() Config {
	return Config{Tiles: 32, Tile: TileConfig{Mults: 32, Gran: 2, FIFODepth: 4}, Policy: balance.WeightAct}
}

func (c Config) withDefaults() Config {
	if c.Tiles == 0 {
		c.Tiles = 32
	}
	c.Tile = c.Tile.withDefaults()
	return c
}

// SimResult is the outcome of a cycle-simulated layer.
type SimResult struct {
	Output     *tensor.OutputMap // strided/padded conv output
	Cycles     int64             // max over compute tiles (they synchronize per layer)
	TileCycles []int64           // per compute tile
	Stalls     int64
	Products   int64
	Deliveries int64
	Conflicts  int64
	Counters   energy.Counters
}

// SimulateConv runs a whole (small) layer through the cycle-level tile
// model: the per-channel pass (prepare) runs every (input channel × spatial
// tile) intersection, the input channels on at most GOMAXPROCS goroutines;
// the balancing policy groups the input channels onto compute tiles; a
// compute tile's cycles are the sum of its channels' intersection cycles,
// and the layer latency is the slowest tile's. The numeric output is
// bit-exact against refconv.Conv, and no result depends on GOMAXPROCS.
func SimulateConv(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg Config) SimResult {
	cfg = cfg.withDefaults()
	l := prepare(f, w, stride, pad, CoreSimConfig{Tile: cfg.Tile, TileW: cfg.TileW, TileH: cfg.TileH}, cfg.Dense)
	res := SimResult{Output: l.output, TileCycles: make([]int64, cfg.Tiles), Stalls: l.sum.Stalls, Products: l.sum.Products,
		Deliveries: l.sum.Deliveries, Conflicts: l.sum.Conflicts, Counters: l.sum.Counters}
	for g, chans := range balance.Assign(cfg.Policy, l.costs, l.watoms, cfg.Tiles) {
		for _, c := range chans {
			res.TileCycles[g] += l.chans[c].cycles
		}
		res.Cycles = max(res.Cycles, res.TileCycles[g])
	}
	telemetry.Default.AddStageCycles(l.sum.Stages)
	return res
}

// tileGrid is the tiling of f's plane into tw×th spatial tiles, 0
// meaning the whole plane.
func tileGrid(f *tensor.FeatureMap, tw, th int) []tensor.Tile {
	if tw == 0 {
		tw = f.W
	}
	if th == 0 {
		th = f.H
	}
	return tensor.TileGrid(f.W, f.H, tw, th)
}

// accumulators returns one full-convolution accumulator per spatial tile,
// shared by every intersection on it: int32 adds commute, so the order in
// which intersections drain into it cannot change the output.
func accumulators(tiles []tensor.Tile, w *tensor.KernelStack) []*tensor.OutputMap {
	fulls := make([]*tensor.OutputMap, len(tiles))
	for ti, tl := range tiles {
		fulls[ti] = tensor.NewOutputMap(w.K, tl.H+w.KH-1, tl.W+w.KW-1)
	}
	return fulls
}

// assemble overlap-adds the spatial tiles' accumulators into the layer's
// full convolution and extracts the strided, padded output.
func assemble(tiles []tensor.Tile, fulls []*tensor.OutputMap, f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) *tensor.OutputMap {
	global := tensor.NewOutputMap(w.K, tensor.FullConvSize(f.H, w.KH), tensor.FullConvSize(f.W, w.KW))
	for ti, tl := range tiles {
		refconv.AddTileFull(global, fulls[ti], tl)
	}
	return refconv.ExtractStrided(global, f.H, f.W, w.KH, w.KW, stride, pad)
}
