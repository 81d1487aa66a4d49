package conformance

import (
	"fmt"

	"ristretto/internal/accel"
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// The built-in adapter set: the Ristretto-side views of the dataflow, plus
// every accelerator-table row with a functional simulator, under the row's
// name. Every adapter routes the numerics through that engine's own
// arithmetic primitive, so agreement with refconv is evidence about the
// dataflow, not about a shared multiply routine.
func init() {
	Register(Engine{Name: "csc", Run: runCSC(false)})
	Register(Engine{Name: "csc-ns", Run: runCSC(true)})
	Register(Engine{Name: "tile-sim", Run: runTileSim})
	Register(Engine{Name: "core-sim", Run: runCoreSim})
	Register(Engine{Name: "analytic", Analytic: true, Run: runAnalytic})
	for _, a := range accel.All() {
		if sim := a.Simulate; sim != nil {
			Register(Engine{Name: a.Name, Run: func(cs Case, f *tensor.FeatureMap, w *tensor.KernelStack) Result {
				out, cycles := sim(f, w, cs.Stride, cs.Pad)
				return Result{Output: out, Cycles: cycles, AtomMuls: -1}
			}})
		}
	}
}

// runCSC adapts the functional condensed-streaming pipeline; dense selects
// the Ristretto-ns (sparsity-disabled) configuration, whose atom-work
// counts intentionally differ from the sparse invariant.
func runCSC(dense bool) func(Case, *tensor.FeatureMap, *tensor.KernelStack) Result {
	return func(cs Case, f *tensor.FeatureMap, w *tensor.KernelStack) Result {
		out, st := core.Convolve(f, w, cs.Stride, cs.Pad, core.Config{
			Gran:       cs.Gran,
			Multiplier: cs.Mults,
			TileW:      cs.TileW,
			TileH:      cs.TileH,
			Dense:      dense,
		})
		muls := int64(st.Products)
		if dense {
			muls = -1
		}
		return Result{Output: out, Cycles: int64(st.Steps), AtomMuls: muls}
	}
}

func runTileSim(cs Case, f *tensor.FeatureMap, w *tensor.KernelStack) Result {
	r := ristretto.SimulateConv(f, w, cs.Stride, cs.Pad, ristretto.Config{
		Tiles:  cs.Tiles,
		Tile:   ristretto.TileConfig{Mults: cs.Mults, Gran: cs.Gran},
		TileW:  cs.TileW,
		TileH:  cs.TileH,
		Policy: balance.WeightAct,
	})
	return Result{Output: r.Output, Cycles: r.Cycles, AtomMuls: r.Counters.AtomMuls}
}

func runCoreSim(cs Case, f *tensor.FeatureMap, w *tensor.KernelStack) Result {
	r := ristretto.SimulateCore(f, w, cs.Stride, cs.Pad, ristretto.CoreSimConfig{
		Tiles:  cs.Tiles,
		Tile:   ristretto.TileConfig{Mults: cs.Mults, Gran: cs.Gran},
		TileW:  cs.TileW,
		TileH:  cs.TileH,
		Policy: balance.WeightAct,
	})
	return Result{Output: r.Output, Cycles: r.Cycles, AtomMuls: r.Counters.AtomMuls}
}

// runAnalytic adapts the closed-form performance model. It has no numeric
// output; its conformance check is the atom-work invariant (exact at
// stride 1) plus cycle sanity.
func runAnalytic(cs Case, f *tensor.FeatureMap, w *tensor.KernelStack) Result {
	l := model.Layer{
		Name: fmt.Sprintf("conf-%d", cs.Index),
		C:    f.C, H: f.H, W: f.W,
		K: w.K, KH: w.KH, KW: w.KW,
		Stride: cs.Stride, Pad: cs.Pad,
	}
	st := workload.StatsFromTensors(l, f, w, cs.Gran, true)
	p := ristretto.EstimateLayer(st, ristretto.Config{
		Tiles:  cs.Tiles,
		Tile:   ristretto.TileConfig{Mults: cs.Mults, Gran: cs.Gran},
		Policy: balance.WeightAct,
	})
	muls := p.Counters.AtomMuls
	if cs.Stride > 1 {
		// The stride-phase decomposition rounds per-phase stream lengths;
		// the invariant is only exact at stride 1.
		muls = -1
	}
	return Result{Cycles: p.Cycles, AtomMuls: muls}
}
