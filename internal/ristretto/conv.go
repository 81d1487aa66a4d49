package ristretto

import (
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/refconv"
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
// simulator: input channels are grouped onto compute tiles by the balancing
// policy; each tile serially processes its channels' (spatial tile ×
// channel) intersections; per-tile cycles sum and the layer latency is the
// slowest tile. The numeric output is bit-exact against refconv.Conv.
func SimulateConv(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int, cfg Config) SimResult {
	cfg = cfg.withDefaults()
	ls := buildStreams(f, w, cfg.TileW, cfg.TileH, cfg.Tile, cfg.Dense)
	groups := balance.Assign(cfg.Policy, ls.costs, ls.watoms, cfg.Tiles)

	res := SimResult{TileCycles: make([]int64, cfg.Tiles)}
	fulls := accumulators(ls.tiles, w)
	scratch := NewTileScratch() // one scratch reused across every intersection
	for g, chans := range groups {
		for _, c := range chans {
			for ti, tl := range ls.tiles {
				r := SimulateIntersectionScratch(ls.acts[c*len(ls.tiles)+ti], ls.weights[c], w.KH, w.KW, tl.W, tl.H, fulls[ti], cfg.Tile, scratch)
				res.TileCycles[g] += r.Cycles
				res.Stalls += r.StallCycles
				res.Products += r.Products
				res.Deliveries += r.Deliveries
				res.Conflicts += r.Conflicts
				res.Counters.Add(r.Counters)
			}
		}
	}
	for _, c := range res.TileCycles {
		if c > res.Cycles {
			res.Cycles = c
		}
	}
	res.Output = assemble(ls.tiles, fulls, f, w, stride, pad)
	return res
}

// layerStreams is SimulateConv's offline step: a layer's compressed operand
// streams and the balancing statistics read off them.
type layerStreams struct {
	tiles   []tensor.Tile       // the spatial tiling of the input plane
	weights [][]core.WeightAtom // [c]: input channel c's static stream over every output channel
	acts    [][]core.ActAtom    // [c*len(tiles)+ti]: channel c's activation stream on spatial tile ti
	watoms  []int               // [c]: len(weights[c])
	tatoms  []int               // [c]: channel c's activation atoms over every spatial tile
	costs   []int64             // [c]: the balancing cost of channel c
}

// buildStreams compresses every input channel's streams, the channels
// fanned out over fanOut. dense keeps zero atoms and zero values
// (Ristretto-ns); tw×th is the spatial tile, 0 meaning the whole plane.
func buildStreams(f *tensor.FeatureMap, w *tensor.KernelStack, tw, th int, tile TileConfig, dense bool) *layerStreams {
	tiles := tileGrid(f, tw, th)
	ls := &layerStreams{
		tiles:   tiles,
		weights: make([][]core.WeightAtom, f.C),
		acts:    make([][]core.ActAtom, f.C*len(tiles)),
		watoms:  make([]int, f.C),
		tatoms:  make([]int, f.C),
		costs:   make([]int64, f.C),
	}
	fanOut(f.C, func(s *TileScratch, c int) {
		ls.weights[c] = s.streamer.Stream(w, c, tile.Gran, dense)
		ls.watoms[c] = len(ls.weights[c])
		for ti, tl := range tiles {
			var acts []core.ActAtom
			if dense {
				acts = core.CompressActs(core.FlattenTileDense(f, c, tl), f.Bits, tile.Gran, true)
			} else {
				// Fused zero-skipping builder: walks 64-lane bitmap words
				// instead of materializing the dense element list.
				acts = core.StreamTileActs(f, c, tl, tile.Gran)
			}
			ls.acts[c*len(tiles)+ti] = acts
			ls.tatoms[c] += len(acts)
		}
		ls.costs[c] = balance.Cost(ls.tatoms[c], ls.watoms[c], tile.Mults)
	})
	return ls
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
