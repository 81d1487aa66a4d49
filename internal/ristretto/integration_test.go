package ristretto

import (
	"testing"

	"ristretto/internal/balance"
	"ristretto/internal/refconv"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// Integration: a three-layer mini-network runs layer by layer on the
// whole-core simulator, with the post-processing unit producing each next
// input — the deepest end-to-end path in the repository. The final tensor
// must equal the dense reference chain, and the per-layer latencies must be
// consistent with the accumulated statistics.
func TestEndToEndCoreSimulation(t *testing.T) {
	g := workload.NewGen(80)
	input := g.FeatureMap(3, 16, 16, 8, 0.55)
	type layer struct {
		k           *tensor.KernelStack
		stride, pad int
		post        PostProcessor
	}
	layers := []layer{
		{g.Kernels(8, 3, 3, 3, 4, 0.5), 1, 1, PostProcessor{OutBits: 8, Gran: 2, ShiftRight: 5}},
		{g.Kernels(8, 8, 3, 3, 8, 0.45), 2, 1, PostProcessor{OutBits: 4, Gran: 2, ShiftRight: 9}},
		{g.Kernels(4, 8, 1, 1, 2, 0.5), 1, 0, PostProcessor{OutBits: 8, Gran: 2, ShiftRight: 1}},
	}
	cfg := CoreSimConfig{Tiles: 4, Tile: TileConfig{Mults: 8, Gran: 2}, Policy: balance.WeightAct}

	cur := input
	ref := input
	var totalCycles int64
	for li, l := range layers {
		res := SimulateCore(cur, l.k, l.stride, l.pad, cfg)
		want := refconv.Conv(ref, l.k, l.stride, l.pad)
		if !res.Output.Equal(want) {
			t.Fatalf("layer %d: core sim diverged (maxdiff %d)", li, res.Output.MaxAbsDiff(want))
		}
		if res.Cycles <= 0 {
			t.Fatalf("layer %d: no cycles", li)
		}
		totalCycles += res.Cycles

		fm, counts := l.post.Run(res.Output)
		refFM, _ := l.post.Run(want)
		for i := range fm.Data {
			if fm.Data[i] != refFM.Data[i] {
				t.Fatalf("layer %d: post-processing diverged", li)
			}
		}
		// PPU statistics must match a direct measurement of the produced
		// tensor (they seed the next layer's balancer).
		sum := 0
		for _, c := range counts {
			sum += c
		}
		meas := 0
		for c := 0; c < fm.C; c++ {
			for _, v := range fm.Channel(c) {
				if v != 0 {
					meas += countAtoms(v, fm.Bits)
				}
			}
		}
		if sum != meas {
			t.Fatalf("layer %d: PPU atom count %d != measured %d", li, sum, meas)
		}
		cur, ref = fm, refFM
	}
	if totalCycles <= 0 {
		t.Fatal("no total latency")
	}
	if cur.C != 4 {
		t.Fatalf("final tensor has %d channels, want 4", cur.C)
	}
}

func countAtoms(v int32, bits int) int {
	cnt := 0
	mag := v
	for i := 0; i < (bits+1)/2; i++ {
		if (mag>>(2*i))&3 != 0 {
			cnt++
		}
	}
	return cnt
}
