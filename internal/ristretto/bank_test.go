package ristretto

import (
	"slices"
	"testing"

	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/refconv"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// TestWidePlaneBanks runs layers whose full-convolution planes span many
// 64-bit words of the drains' position bitsets, in counts that are not
// multiples of 64, through PrepareCore and Run: 30×30 = 900 positions under
// 3×3 kernels; 33×32 = 1056 under 5×5 kernels, whose slot offsets reach
// past the first word; and 5×4 spatial tiles that leave 3-wide and 3-high
// edge tiles. The output must match refconv.Conv, and every result field
// and trace event the lockstep oracle with its reference banks.
func TestWidePlaneBanks(t *testing.T) {
	for _, tc := range []struct {
		name         string
		h, w, ks     int
		tileW, tileH int
	}{
		{"28x28 whole plane, 3x3 kernels", 28, 28, 3, 0, 0},
		{"29x28 whole plane, 5x5 kernels", 29, 28, 5, 0, 0},
		{"27x28 on 5x4 tiles", 27, 28, 3, 5, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := workload.NewGen(2800)
			f := g.FeatureMapExact(3, tc.h, tc.w, 4, 2, 0.5, 0.7)
			w := g.KernelsExact(6, 3, tc.ks, tc.ks, 4, 2, 0.5, 0.7)
			pad := tc.ks / 2
			cfg := CoreSimConfig{Tiles: 2, Tile: TileConfig{Mults: 8, Gran: 2}, TileW: tc.tileW, TileH: tc.tileH, Policy: balance.WeightAct}
			res := PrepareCore(f, w, 1, pad, cfg).Run(cfg.Tiles, cfg.Policy)
			if want := refconv.Conv(f, w, 1, pad); !res.Output.Equal(want) {
				t.Fatalf("output differs from refconv (max diff %d)", res.Output.MaxAbsDiff(want))
			}
			checkCoreSchedule(t, coreCase{f: f, w: w, stride: 1, pad: pad, cfg: cfg})
		})
	}
}

// TestIntersectionDropsOutOfWindowProducts runs SimulateIntersectionScratch
// on streams that carry activation coordinates past the tile and weight
// coordinates past the kernel window, so the comp module drops some
// products. Its output, deliveries and drained entries must match the
// shift-register reference chunk by chunk, drains included.
func TestIntersectionDropsOutOfWindowProducts(t *testing.T) {
	const kh, kw, tileW, tileH = 3, 3, 4, 3
	acts := []core.ActAtom{
		{Mag: 1, X: 0, Y: 0}, {Mag: 2, Shift: 2, Last: true, X: 0, Y: 0},
		{Mag: 3, Last: true, X: 3, Y: 2},
		{Mag: 1, Last: true, X: 5, Y: 1}, // past the tile's width
		{Mag: 2, Last: true, X: 2, Y: 4}, // past the tile's height
		{Mag: 3, Shift: 2, Last: true, X: 1, Y: 1},
	}
	ws := []core.WeightAtom{
		{Mag: 1, K: 0}, {Mag: 2, X: 2, Y: 2, K: 1, Sign: true}, {Mag: 3, X: 3, Y: 0, K: 2}, // X past the window
		{Mag: 1, Shift: 2, X: 1, Y: 1, K: 0}, {Mag: 2, Shift: 2, X: 0, Y: 4, K: 1}, // Y past the window
		{Mag: 3, Shift: 2, X: 2, Y: 0, K: 0},
	}
	cfg := TileConfig{Mults: 2, Gran: 2, FIFODepth: 1}
	out := tensor.NewOutputMap(3, tileH+kh-1, tileW+kw-1)
	res := SimulateIntersectionScratch(acts, ws, kh, kw, tileW, tileH, out, cfg, NewTileScratch())

	ref := &refChain{kh: kh, kw: kw, tileW: tileW, fullW: out.W, fullH: out.H, depth: cfg.FIFODepth,
		plane: int32(out.W * out.H), bank: map[int32]int32{}}
	refOut := make([]int32, len(out.Data))
	var deliveries, entries int64
	chunks := NewTileScratch().startJob(acts, ws, tileW, tileH, tensor.NewOutputMap(3, out.H, out.W), cfg.withDefaults())
	for ci, chunk := range chunks {
		_, r := ref.runChunk(acts, chunk)
		deliveries += r.Deliveries
		if ci == len(chunks)-1 || chunks[ci+1][0].Shift != chunk[0].Shift {
			entries += int64(len(ref.bank))
			ref.drain(refOut, chunk[0].Shift)
		}
	}
	lastProducts := int64(5 * len(ws)) // five Last atoms meet every weight atom
	if deliveries == 0 || deliveries >= lastProducts {
		t.Fatalf("%d of %d Last-atom products delivered: the case must drop some and keep some", deliveries, lastProducts)
	}
	if res.Deliveries != deliveries || res.Counters.OutputBufBytes != 4*entries {
		t.Fatalf("delivered %d, drained %d B; reference %d deliveries, %d entries", res.Deliveries, res.Counters.OutputBufBytes, deliveries, entries)
	}
	if !slices.Equal(out.Data, refOut) {
		t.Fatalf("output %v, reference %v", out.Data, refOut)
	}
}
