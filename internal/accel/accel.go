// Package accel is the accelerator table: one row per accelerator name that
// ristretto-sim, /v1/model, the conformance harness and the comparison
// figures accept. A row owns its accelerator's default configuration,
// analytic estimate, energy model, area and functional simulator, so a new
// accelerator is one new row.
package accel

import (
	"fmt"

	"ristretto/internal/baselines/bitfusion"
	"ristretto/internal/baselines/laconic"
	"ristretto/internal/baselines/scnn"
	"ristretto/internal/baselines/snap"
	"ristretto/internal/baselines/sparten"
	"ristretto/internal/energy"
	"ristretto/internal/ristretto"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// Accel is one row of the table.
type Accel struct {
	Name string // as flags and requests spell it
	// Estimate runs the analytic model over a network's layer stats. The
	// Ristretto rows run at rc, whose shape each caller chooses; the
	// baselines run at their default configuration and ignore it.
	Estimate func(stats []workload.LayerStats, rc ristretto.Config) ristretto.NetworkPerf
	PerLayer bool // Estimate fills NetworkPerf.Layers
	// Energy returns the model that prices Estimate's counters.
	Energy func(rc ristretto.Config) energy.Model
	// Area is the baseline's area in mm² for area-normalized figures; 0
	// where no figure uses one, and on the Ristretto rows, whose area
	// follows their shape (energy.RistrettoArea).
	Area float64
	// Simulate runs the functional simulator on one layer and returns its
	// output and cycles; nil where there is none. The conformance harness
	// checks it against the reference convolution under Name.
	Simulate func(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) (*tensor.OutputMap, int64)
}

// The baselines' default configurations: the matched budgets of Section V.
var (
	bitfusionCfg = bitfusion.DefaultConfig()
	laconicCfg   = laconic.DefaultConfig()
	spartenCfg   = sparten.DefaultConfig()
	spartenMPCfg = sparten.Config{CUs: 32, MP: true}
	scnnCfg      = scnn.DefaultConfig()
	snapCfg      = snap.DefaultConfig()
)

var table = []Accel{
	ristrettoRow("ristretto", false),
	ristrettoRow("ristretto-ns", true),
	{Name: "bitfusion", Estimate: estimateAt(bitfusionCfg, bitfusion.EstimateNetwork), Energy: defaultEnergy,
		Area: energy.BitFusionArea(bitfusionCfg.Units()),
		Simulate: func(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) (*tensor.OutputMap, int64) {
			r := bitfusion.SimulateLayer(f, w, stride, pad, bitfusionCfg)
			return r.Output, r.Cycles
		}},
	{Name: "laconic", Estimate: estimateAt(laconicCfg, laconic.EstimateNetwork), Energy: defaultEnergy,
		Area: energy.LaconicArea(laconicCfg.PEs()),
		Simulate: func(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) (*tensor.OutputMap, int64) {
			r := laconic.SimulateLayer(f, w, stride, pad, laconicCfg)
			return r.Output, r.Cycles
		}},
	{Name: "laconic-mod", Estimate: estimateAt(laconicCfg, laconic.EstimateNetworkModified), Energy: defaultEnergy,
		Area: energy.LaconicArea(laconicCfg.PEs()) * laconic.ModifiedAreaFactor},
	{Name: "sparten", Estimate: estimateAt(spartenCfg, sparten.EstimateNetwork), Energy: defaultEnergy,
		Area: energy.SparTenArea(spartenCfg.CUs, spartenCfg.MP), Simulate: spartenSim(spartenCfg)},
	{Name: "sparten-mp", Estimate: estimateAt(spartenMPCfg, sparten.EstimateNetwork), Energy: defaultEnergy,
		Area: energy.SparTenArea(spartenMPCfg.CUs, spartenMPCfg.MP), Simulate: spartenSim(spartenMPCfg)},
	{Name: "scnn", Estimate: estimateAt(scnnCfg, scnn.EstimateNetwork), Energy: defaultEnergy,
		Simulate: func(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) (*tensor.OutputMap, int64) {
			r := scnn.SimulateLayer(f, w, stride, pad, scnnCfg)
			return r.Output, r.Cycles
		}},
	{Name: "snap", Estimate: estimateAt(snapCfg, snap.EstimateNetwork), Energy: defaultEnergy,
		Simulate: func(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) (*tensor.OutputMap, int64) {
			r := snap.SimulateLayer(f, w, stride, pad, snapCfg)
			return r.Output, r.Cycles
		}},
}

// ristrettoRow is a Ristretto row; dense disables sparsity (Ristretto-ns).
func ristrettoRow(name string, dense bool) Accel {
	return Accel{
		Name:     name,
		PerLayer: true,
		Estimate: func(stats []workload.LayerStats, rc ristretto.Config) ristretto.NetworkPerf {
			rc.Dense = dense
			return ristretto.EstimateNetwork(stats, rc)
		},
		Energy: func(rc ristretto.Config) energy.Model { return energy.ModelForGranularity(int(rc.Tile.Gran)) },
	}
}

// estimateAt adapts a baseline's network estimator at configuration cfg.
func estimateAt[C any](cfg C, estimate func([]workload.LayerStats, C) (int64, energy.Counters)) func([]workload.LayerStats, ristretto.Config) ristretto.NetworkPerf {
	return func(stats []workload.LayerStats, _ ristretto.Config) ristretto.NetworkPerf {
		cycles, cnt := estimate(stats, cfg)
		return ristretto.NetworkPerf{Cycles: cycles, Counters: cnt}
	}
}

func defaultEnergy(ristretto.Config) energy.Model { return energy.Default() }

func spartenSim(cfg sparten.Config) func(*tensor.FeatureMap, *tensor.KernelStack, int, int) (*tensor.OutputMap, int64) {
	return func(f *tensor.FeatureMap, w *tensor.KernelStack, stride, pad int) (*tensor.OutputMap, int64) {
		r := sparten.SimulateLayer(f, w, stride, pad, cfg)
		return r.Output, r.Cycles
	}
}

// All returns the rows in table order.
func All() []Accel { return append([]Accel(nil), table...) }

// Names returns the accelerator names in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, a := range table {
		names[i] = a.Name
	}
	return names
}

// ByName looks up a row by accelerator name.
func ByName(name string) (Accel, bool) {
	for _, a := range table {
		if a.Name == name {
			return a, true
		}
	}
	return Accel{}, false
}

// Must returns the named row, panicking if there is none: it is for code
// that names a row itself rather than taking the name as input.
func Must(name string) Accel {
	a, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("accel: no accelerator %q", name))
	}
	return a
}
