package ristretto

import (
	"testing"

	"ristretto/internal/balance"
	"ristretto/internal/model"
	"ristretto/internal/workload"
)

// Cross-check the three performance views on the same operands: the
// analytic model, the per-tile cycle simulator, and the whole-core
// simulator must agree on the invariant work counts (atom multiplications)
// and stay mutually consistent on cycles.
func TestThreeWayWorkConsistency(t *testing.T) {
	g := workload.NewGen(70)
	l := model.Layer{Name: "t", C: 6, H: 10, W: 10, K: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	f := g.FeatureMap(l.C, l.H, l.W, 8, 0.5)
	w := g.Kernels(l.K, l.C, l.KH, l.KW, 8, 0.5)
	st := workload.StatsFromTensors(l, f, w, 2, true)

	tileCfg := TileConfig{Mults: 8, Gran: 2}
	est := EstimateLayer(st, Config{Tiles: 2, Tile: tileCfg, Policy: balance.WeightAct})
	conv := SimulateConv(f, w, 1, 1, Config{Tiles: 2, Tile: tileCfg, Policy: balance.WeightAct})
	core := SimulateCore(f, w, 1, 1, CoreSimConfig{Tiles: 2, Tile: tileCfg, Policy: balance.WeightAct})

	// Atom multiplications are an invariant of the dataflow: every act atom
	// of a channel meets every weight atom of that channel, exactly once.
	var want int64
	for c := 0; c < l.C; c++ {
		want += int64(st.ActAtomsPerChan[c]) * int64(st.WAtomsPerChan[c])
	}
	if est.Counters.AtomMuls != want {
		t.Fatalf("analytic AtomMuls %d != invariant %d", est.Counters.AtomMuls, want)
	}
	if conv.Counters.AtomMuls != want {
		t.Fatalf("tile-sim AtomMuls %d != invariant %d", conv.Counters.AtomMuls, want)
	}
	if core.Counters.AtomMuls != want {
		t.Fatalf("core-sim AtomMuls %d != invariant %d", core.Counters.AtomMuls, want)
	}

	// Cycle ordering: analytic (no overheads) ≤ per-tile sim ≤ whole
	// core (load + port contention), all within a modest band.
	if conv.Cycles < est.Cycles*95/100 {
		t.Fatalf("tile sim (%d) below analytic (%d)", conv.Cycles, est.Cycles)
	}
	if core.Cycles < conv.Cycles {
		t.Fatalf("core sim (%d) below tile sim (%d)", core.Cycles, conv.Cycles)
	}
	if core.Cycles > est.Cycles*3/2 {
		t.Fatalf("core sim (%d) implausibly above analytic (%d)", core.Cycles, est.Cycles)
	}
}
