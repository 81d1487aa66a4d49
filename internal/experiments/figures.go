package experiments

import (
	"fmt"
	"strconv"

	"ristretto/internal/atom"
	"ristretto/internal/baselines/laconic"
	"ristretto/internal/energy"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/workload"
)

// Figure1 reproduces the sparsity-vs-bit-width study: five networks, each
// uniformly quantized to 8/6/4/2 bits *without pruning*, reporting average
// weight and activation sparsity. Weights are clipped Gaussians and
// pre-activations rectified Gaussians (per-layer σ jitter stands in for
// cross-layer distribution variety); the paper's observation — sparsity
// boosts as bit-width narrows, reaching ≈47%/75% at 2 bits — emerges from
// the uniform quantizer's dead zone.
func (b *Bench) Figure1() *Result {
	r := &Result{
		ID:     "Figure 1",
		Title:  "average weight/activation sparsity vs quantization bit-width (no pruning)",
		Header: []string{"network", "bits", "weight sparsity", "act sparsity"},
		Notes:  "paper anchors: 2-bit averages 47.43% (weight) and 75.25% (activation)",
	}
	nets := []string{"AlexNet", "VGG-16", "GoogLeNet", "ResNet-18", "ResNet-50"}
	bitsList := []int{8, 6, 4, 2}
	cells, err := mapCells(b, len(nets)*len(bitsList), func(i int) (zeroCounts, error) {
		return figure1Counts(b.Seed, nets[i/len(bitsList)], bitsList[i%len(bitsList)])
	})
	if err != nil {
		return r.fail(err)
	}
	for i, c := range cells {
		r.AddRow(nets[i/len(bitsList)], fmt.Sprintf("%d", bitsList[i%len(bitsList)]),
			pct(float64(c.wZero)/float64(c.wTot)), pct(float64(c.aZero)/float64(c.aTot)))
	}
	return r
}

// zeroCounts tallies one Figure 1 cell: the zero codes among the sampled
// weights and activations, and the samples.
type zeroCounts struct{ wZero, wTot, aZero, aTot int }

// figure1Counts draws the Figure 1 cell of network name at the given
// bit-width: up to maxSamples weights, then up to maxSamples
// pre-activations per layer, in one normal stream per cell, and counts the
// values each quantizer maps to code 0.
func figure1Counts(seed int64, name string, bits int) (zeroCounts, error) {
	const maxSamples = 60000
	var c zeroCounts
	n, err := model.ByName(name)
	if err != nil {
		return c, err
	}
	// One independent stream per (network, bit-width) cell. The previous
	// expression, seed ^ hash(name)*bits, parsed as seed ^ (hash*bits):
	// multiplying by bits ∈ {2,4,8} shifted entropy out of the low bits
	// and correlated the streams of one network across bit-widths.
	g := workload.NewGen(workload.DeriveSeed(seed, "figure1", name, strconv.Itoa(bits)))
	buf := make([]float64, maxSamples)
	zeros := func(samples int, q quant.Quantizer) int {
		xs := buf[:samples]
		g.Normals(xs)
		z := 0
		for _, x := range xs {
			if q.Code(x) == 0 {
				z++
			}
		}
		return z
	}
	for li, l := range n.Layers {
		wn := min(int(l.Weights()), maxSamples)
		an := min(int(l.Activations()), maxSamples)
		// Per-network/per-layer clip jitter (±10%): quantized sparsity is
		// scale-invariant for Gaussians, so varying σ alone would make
		// every network identical; real networks differ in how tightly
		// their learned clips sit.
		jitter := 0.9 + 0.2*float64(int(model.Hash(fmt.Sprintf("%s%d", name, li))%100))/100
		c.wZero += zeros(wn, quant.NewSigned(1, quant.Config{Bits: bits, ClipSigma: quant.DefaultWeightClip(bits) * jitter}))
		c.aZero += zeros(an, quant.NewUnsigned(1, quant.Config{Bits: bits, ClipSigma: quant.DefaultActClip(bits) * jitter}))
		c.wTot += wn
		c.aTot += an
	}
	return c, nil
}

// Figure4 reproduces the Laconic sensitivity study: a tile of PEs (16
// parallel bit-serial multipliers each, 8-bit vectors, uniform random
// sparsity, 1000 runs), comparing theoretical latency, average PE latency
// (data sharing disabled) and lock-step tile latency across value-sparsity
// levels and two tile sizes.
func (b *Bench) Figure4() *Result {
	r := &Result{
		ID:     "Figure 4",
		Title:  "Laconic latency vs value sparsity (16-lane PEs, 8-bit vectors, 1000 runs)",
		Header: []string{"tile", "sparsity", "theoretical", "avg PE", "tile latency"},
		Notes:  "latencies in cycles per inner-product round; sparsity benefits shrink as the tile grows",
	}
	const runs = 1000
	cfgs := []laconic.Config{
		{PERows: 2, PECols: 4, Lanes: 16, Booth: true},
		{PERows: 6, PECols: 8, Lanes: 16, Booth: true},
	}
	var sps []float64
	for sp := 0.0; sp <= 0.90001; sp += 0.15 {
		sps = append(sps, sp)
	}
	type cell struct{ theo, avg, tile float64 }
	cells, err := mapCells(b, len(cfgs)*len(sps), func(i int) (cell, error) {
		cfg := cfgs[i/len(sps)]
		sp := sps[i%len(sps)]
		// Seed derived per (tile, sparsity) cell; the old b.Seed+sp*1000+PEs
		// mixing made neighbouring sweep points reuse overlapping streams.
		g := workload.NewGen(workload.DeriveSeed(b.Seed, "figure4",
			fmt.Sprintf("%dx%d", cfg.PERows, cfg.PECols), pct(sp)))
		var c cell
		for i := 0; i < runs; i++ {
			run := laconic.SimulateTile(g, cfg, 8, 1-sp)
			c.theo += run.TheoreticalCycles
			c.avg += run.AvgPECycles
			c.tile += float64(run.TileCycles)
		}
		return c, nil
	})
	if err != nil {
		return r.fail(err)
	}
	for i, c := range cells {
		cfg := cfgs[i/len(sps)]
		r.AddRow(fmt.Sprintf("%dx%d", cfg.PERows, cfg.PECols), pct(sps[i%len(sps)]),
			f2(c.theo/runs), f2(c.avg/runs), f2(c.tile/runs))
	}
	return r
}

// TableIV reports the activation shift ranges under 2-bit atoms.
func TableIV() *Result {
	r := &Result{
		ID:     "Table IV",
		Title:  "shift ranges under different activation bit-width (2-bit atoms)",
		Header: []string{"activation bits", "shift range"},
	}
	for _, bits := range []int{8, 6, 4, 2} {
		r.AddRow(fmt.Sprintf("%db", bits), fmt.Sprint(atom.Granularity(2).ShiftRange(bits)))
	}
	return r
}

// TableVI reports the area breakdown of the 32-tile / 32-multiplier
// Ristretto core (the paper's synthesis anchor).
func TableVI() *Result {
	a := energy.TableVI()
	r := &Result{
		ID:     "Table VI",
		Title:  "area breakdown of the Ristretto accelerator (mm², 28nm anchor)",
		Header: []string{"component", "area (mm2)"},
	}
	r.AddRow("Compute Tile / Atomizer", fmt.Sprintf("%.3f", a.Atomizer))
	r.AddRow("Compute Tile / Atomputer", fmt.Sprintf("%.3f", a.Atomputer))
	r.AddRow("Compute Tile / Atomulator", fmt.Sprintf("%.3f", a.Atomulator))
	r.AddRow("Compute Tile / Accu Buffer", fmt.Sprintf("%.3f", a.AccBuffer))
	r.AddRow("Data Buffer / Input", fmt.Sprintf("%.3f", a.InputBuf))
	r.AddRow("Data Buffer / Weight", fmt.Sprintf("%.3f", a.WeightBuf))
	r.AddRow("Data Buffer / Output", fmt.Sprintf("%.3f", a.OutputBuf))
	r.AddRow("Post-Processing Unit", fmt.Sprintf("%.3f", a.PostProc))
	r.AddRow("Others", fmt.Sprintf("%.3f", a.Others))
	r.AddRow("Total", fmt.Sprintf("%.3f", a.Total()))
	return r
}

// Taxonomy reproduces the descriptive Tables I–III and V: the design-space
// feature matrices of prior accelerators that motivate the work.
func Taxonomy() []*Result {
	t1 := &Result{
		ID: "Table I", Title: "state-of-the-art dual-sided sparse CNN accelerators",
		Header: []string{"accelerator", "pre-processing", "compute", "post-processing", "MAC", "precision"},
	}
	t1.AddRow("SCNN", "broadcast", "outer product", "crossbar", "2D array", "16b")
	t1.AddRow("SparTen", "inner-join", "inner product", "permute network", "scalar", "8b")
	t1.AddRow("SNAP", "associative index matching", "inner product", "two-level reduction", "2D array", "16b")

	t2 := &Result{
		ID: "Table II", Title: "state-of-the-art precision-scalable CNN accelerators",
		Header: []string{"accelerator", "MAC", "precision", "dataflow"},
	}
	t2.AddRow("LOOM", "bit-serial", "1~16b", "2D broadcast")
	t2.AddRow("Bit Fusion", "bit-decomposition", "2/4/8b", "2D systolic")
	t2.AddRow("BitBlade", "bit-decomposition", "2/4/8b", "2D broadcast")

	t3 := &Result{
		ID: "Table III", Title: "sparsity exploitation of precision-scalable accelerators",
		Header: []string{"accelerator", "weight", "activation", "weight bit", "activation bit"},
	}
	t3.AddRow("Bit-Pragmatic", "", "", "", "yes")
	t3.AddRow("Bit-Tactical", "yes", "", "", "yes")
	t3.AddRow("Laconic", "", "", "yes", "yes")
	t3.AddRow("Ristretto (this work)", "yes", "yes", "yes", "yes")

	t5 := &Result{
		ID: "Table V", Title: "baseline accelerators evaluated in this work",
		Header: []string{"accelerator", "value sparsity", "bit sparsity", "variable precision"},
	}
	t5.AddRow("Bit Fusion", "", "", "yes")
	t5.AddRow("Laconic", "", "yes", "yes")
	t5.AddRow("SparTen", "yes", "", "")
	t5.AddRow("SparTen-mp", "yes", "", "yes")
	return []*Result{t1, t2, t3, t5}
}
