package ristretto

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/refconv"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

func TestSimulateCoreBitExact(t *testing.T) {
	cfgs := []CoreSimConfig{
		{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}},
		{Tiles: 1, Tile: TileConfig{Mults: 16, Gran: 2}},
		{Tiles: 2, Tile: TileConfig{Mults: 4, Gran: 1}, TileW: 4, TileH: 4},
		{Tiles: 8, Tile: TileConfig{Mults: 8, Gran: 3}},
		{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}, Policy: balance.WeightAct, DrainWidth: 2, LoadWidth: 1},
	}
	for i, cfg := range cfgs {
		g := workload.NewGen(int64(30 + i))
		f := g.FeatureMapExact(3, 8, 8, 8, cfg.Tile.Gran, 0.5, 0.7)
		w := g.KernelsExact(4, 3, 3, 3, 8, cfg.Tile.Gran, 0.6, 0.7)
		res := SimulateCore(f, w, 1, 1, cfg)
		want := refconv.Conv(f, w, 1, 1)
		if !res.Output.Equal(want) {
			t.Fatalf("cfg %d: core sim output wrong (maxdiff %d)", i, res.Output.MaxAbsDiff(want))
		}
		if res.Cycles <= 0 {
			t.Fatalf("cfg %d: no cycles", i)
		}
	}
}

func TestSimulateCoreRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8; i++ {
		gran := atom.Granularity(rng.Intn(3) + 1)
		cfg := CoreSimConfig{
			Tiles: 1 + rng.Intn(6),
			Tile:  TileConfig{Mults: 1 + rng.Intn(12), Gran: gran, FIFODepth: 1 + rng.Intn(4)},
			TileW: 1 + rng.Intn(6), TileH: 1 + rng.Intn(6),
			Policy: balance.Policy(rng.Intn(3)),
		}
		g := workload.NewGen(int64(40 + i))
		abits := []int{2, 4, 8}[rng.Intn(3)]
		wbits := []int{2, 4, 8}[rng.Intn(3)]
		f := g.FeatureMapExact(1+rng.Intn(3), 4+rng.Intn(5), 4+rng.Intn(5), abits, gran, 0.5, 0.7)
		w := g.KernelsExact(1+rng.Intn(4), f.C, 3, 3, wbits, gran, 0.6, 0.7)
		stride, pad := 1+rng.Intn(2), rng.Intn(2)
		res := SimulateCore(f, w, stride, pad, cfg)
		want := refconv.Conv(f, w, stride, pad)
		if !res.Output.Equal(want) {
			t.Fatalf("iter %d: core sim wrong", i)
		}
	}
}

func TestSimulateCoreTracksSimulateConv(t *testing.T) {
	// The whole-core simulator adds load and drain overheads on top of
	// SimulateConv's per-tile cycle sums; it must never be faster, and
	// should stay within ~40% on a medium layer.
	g := workload.NewGen(50)
	f := g.FeatureMap(6, 12, 12, 8, 0.5)
	w := g.Kernels(8, 6, 3, 3, 8, 0.5)
	tileCfg := TileConfig{Mults: 8, Gran: 2}
	conv := SimulateConv(f, w, 1, 1, Config{Tiles: 3, Tile: tileCfg, Policy: balance.WeightAct})
	core := SimulateCore(f, w, 1, 1, CoreSimConfig{Tiles: 3, Tile: tileCfg, Policy: balance.WeightAct})
	if core.Cycles < conv.Cycles {
		t.Fatalf("whole core (%d) cannot beat overhead-free per-tile sum (%d)", core.Cycles, conv.Cycles)
	}
	if float64(core.Cycles) > 1.4*float64(conv.Cycles) {
		t.Fatalf("core overheads too large: %d vs %d", core.Cycles, conv.Cycles)
	}
}

func TestSimulateCoreDrainContention(t *testing.T) {
	// Many tiles sharing one output port must queue on drains.
	g := workload.NewGen(51)
	f := g.FeatureMapExact(8, 8, 8, 8, 2, 0.6, 0.8)
	w := g.KernelsExact(8, 8, 3, 3, 8, 2, 0.6, 0.8)
	res := SimulateCore(f, w, 1, 1, CoreSimConfig{Tiles: 8, Tile: TileConfig{Mults: 8, Gran: 2}, DrainWidth: 1})
	if res.DrainWait == 0 {
		t.Fatal("expected output-port contention with 8 tiles and a slow port")
	}
	if res.LoadCycles == 0 {
		t.Fatal("expected weight-load cycles")
	}
}

func TestSimulateCoreBusyBounded(t *testing.T) {
	g := workload.NewGen(52)
	f := g.FeatureMapExact(4, 8, 8, 8, 2, 0.5, 0.7)
	w := g.KernelsExact(4, 4, 3, 3, 8, 2, 0.5, 0.7)
	res := SimulateCore(f, w, 1, 1, CoreSimConfig{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}})
	for i, b := range res.TileBusy {
		if b > res.Cycles {
			t.Fatalf("tile %d busy %d exceeds global cycles %d", i, b, res.Cycles)
		}
	}
}

// TestSimulateCoreMemoryBound bounds the bytes one SimulateCore call
// allocates — what one /v1/sim request costs the daemon — by its inputs:
// a small multiple of the operand and compressed-stream bytes (stream
// building with its temporaries), two output volumes per spatial tile (the
// tile's shared accumulator, plus the global buffer and strided output its
// overlap-add covers), one accumulate-bank image per compute tile and a
// few words of bookkeeping per (input channel, spatial tile) job. A
// per-job accumulator grows with the channel count instead and breaks the
// bound.
func TestSimulateCoreMemoryBound(t *testing.T) {
	g := workload.NewGen(90)
	f := g.FeatureMap(32, 12, 12, 4, 0.5)
	w := g.Kernels(32, 32, 3, 3, 4, 0.5)
	for _, tc := range []struct {
		name   string
		tw, th int
	}{{"whole_plane", 0, 0}, {"tiles_4x4", 4, 4}, {"tiles_1x1", 1, 1}} {
		cfg := CoreSimConfig{Tiles: 4, Tile: TileConfig{Mults: 32, Gran: 2}, TileW: tc.tw, TileH: tc.th, Policy: balance.WeightAct}
		tw, th := tc.tw, tc.th
		if tw == 0 {
			tw, th = f.W, f.H
		}
		tiles := tensor.TileGrid(f.W, f.H, tw, th)
		operands := 4 * int64(len(f.Data)+len(w.Data))
		var streams, volumes, maxVolume int64
		for c := 0; c < f.C; c++ {
			ws := core.CompressWeights(core.FlattenKernels(w, c, nil), w.Bits, 2, false)
			streams += int64(len(ws)) * int64(unsafe.Sizeof(core.WeightAtom{}))
			for _, tl := range tiles {
				streams += int64(len(core.StreamTileActs(f, c, tl, 2))) * int64(unsafe.Sizeof(core.ActAtom{}))
			}
		}
		for _, tl := range tiles {
			v := 4 * int64(w.K*(tl.H+w.KH-1)*(tl.W+w.KW-1))
			volumes += v
			maxVolume = max(maxVolume, v)
		}
		jobs := int64(f.C * len(tiles))
		budget := 2*operands + 8*streams + 256*jobs + 2*volumes + int64(cfg.Tiles)*2*maxVolume + 64<<10

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := SimulateCore(f, w, 1, 1, cfg)
		runtime.ReadMemStats(&after)
		if !res.Output.Equal(refconv.Conv(f, w, 1, 1)) {
			t.Fatalf("%s: output wrong", tc.name)
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: allocated %d B of a %d B budget", tc.name, got, budget)
		if got > budget {
			t.Errorf("%s: SimulateCore allocated %d B, budget %d B (operands %d, streams %d, %d spatial tiles × ≤%d B output volume)",
				tc.name, got, budget, operands, streams, len(tiles), maxVolume)
		}
	}
}

// TestAtomFieldLimits covers layers past the atoms' fields. Activation
// atoms carry 8-bit tile coordinates and weight atoms 8-bit kernel
// coordinates and a 16-bit output channel, so a spatial tile wider or
// taller than 256, a wider kernel or more than 65,536 output channels
// would wrap a coordinate and give a wrong output. Both simulators must
// refuse such a layer with a panic that names the limit, and a tiling
// within it must give the reference output.
func TestAtomFieldLimits(t *testing.T) {
	g := workload.NewGen(96)
	wide, tall := g.FeatureMap(2, 3, 300, 8, 0.5), g.FeatureMap(2, 300, 3, 8, 0.5)
	w3 := g.Kernels(2, 2, 3, 3, 8, 0.5)
	pixel, pair := tensor.NewFeatureMap(1, 1, 1, 8), tensor.NewFeatureMap(1, 1, 2, 8)
	pixel.Data[0], pair.Data[0], pair.Data[1] = 3, 5, 7
	tileCfg := TileConfig{Mults: 8, Gran: 2}
	panics := func(name, want string, run func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %q", name, msg, want)
			}
		}()
		run()
	}
	for _, tc := range []struct {
		name string
		f    *tensor.FeatureMap
		w    *tensor.KernelStack
		want string
	}{
		{"2x3x300 plane", wide, w3, "set TileW and TileH to at most 256"},
		{"2x300x3 plane", tall, w3, "set TileW and TileH to at most 256"},
		{"65537-channel kernel stack", pixel, g.Kernels(1<<16+1, 1, 1, 1, 8, 1), "65536 channels of at most 256x256"},
		{"1x257 kernel stack", pair, g.Kernels(1, 1, 1, 257, 8, 1), "65536 channels of at most 256x256"},
	} {
		panics("SimulateCore on a "+tc.name, tc.want, func() {
			SimulateCore(tc.f, tc.w, 1, 0, CoreSimConfig{Tile: tileCfg})
		})
		panics("SimulateConv on a "+tc.name, tc.want, func() {
			SimulateConv(tc.f, tc.w, 1, 0, Config{Tiles: 2, Tile: tileCfg})
		})
	}
	want := refconv.Conv(wide, w3, 1, 1)
	if got := SimulateCore(wide, w3, 1, 1, CoreSimConfig{Tile: tileCfg, TileW: 128}).Output; !got.Equal(want) {
		t.Errorf("SimulateCore on 128-wide tiles of a 300-wide plane: max diff %d from the reference", got.MaxAbsDiff(want))
	}
	if got := SimulateConv(wide, w3, 1, 1, Config{Tiles: 2, Tile: tileCfg, TileW: 128}).Output; !got.Equal(want) {
		t.Errorf("SimulateConv on 128-wide tiles of a 300-wide plane: max diff %d from the reference", got.MaxAbsDiff(want))
	}
}
