package experiments

import (
	"fmt"

	"ristretto/internal/accel"
	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/energy"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/workload"
)

// netSweep evaluates fn on every network's stats (at granularity gran) at
// each precision, on the bench worker pool, and regroups the values:
// cols[p][j] lists value j at precs[p] over the networks, in network order
// — the iteration order of the serial loops it replaces, so rows built from
// it reproduce the serial output bit for bit. width is the number of values
// fn returns. A non-nil error (a panicking cell, or run cancellation) means
// the values are partial and the caller must fail its Result instead of
// rendering zeros.
func (b *Bench) netSweep(precs []string, gran atom.Granularity, width int, fn func([]workload.LayerStats) []float64) ([][][]float64, error) {
	nets := b.Networks()
	cells, err := mapCells(b, len(precs)*len(nets), func(i int) ([]float64, error) {
		return fn(b.Stats(nets[i%len(nets)], precs[i/len(nets)], gran)), nil
	})
	if err != nil {
		return nil, err
	}
	cols := make([][][]float64, len(precs))
	for p := range cols {
		cols[p] = make([][]float64, width)
		for j := range cols[p] {
			for ni := range nets {
				cols[p][j] = append(cols[p][j], cells[p*len(nets)+ni][j])
			}
		}
	}
	return cols, nil
}

// speedupFigure fills r, whose header is network, precision, one column
// per value of fn, then the tail columns, from a netSweep: one row per
// network with the values as f2, and when mean is set a geomean row closing
// each precision.
func (b *Bench) speedupFigure(r *Result, precs []string, gran atom.Granularity, mean bool, fn func([]workload.LayerStats) []float64, tail ...string) *Result {
	cols, err := b.netSweep(precs, gran, len(r.Header)-2-len(tail), fn)
	if err != nil {
		return r.fail(err)
	}
	for p, prec := range precs {
		for ni, n := range b.Networks() {
			row := []string{n.Name, prec}
			for _, col := range cols[p] {
				row = append(row, f2(col[ni]))
			}
			r.AddRow(append(row, tail...)...)
		}
		if mean {
			row := []string{"geomean", prec}
			for _, col := range cols[p] {
				row = append(row, f2(geomean(col)))
			}
			r.AddRow(append(row, tail...)...)
		}
	}
	return r
}

// energyFigure fills r, whose header is precision, one column per value of
// fn, then the baseline, from a netSweep over the four precisions: one row
// per precision holding each value's geomean over the networks as a
// percentage, then the baseline's 100%.
func (b *Bench) energyFigure(r *Result, gran atom.Granularity, fn func([]workload.LayerStats) []float64) *Result {
	cols, err := b.netSweep(PrecisionNames, gran, len(r.Header)-2, fn)
	if err != nil {
		return r.fail(err)
	}
	for p, prec := range PrecisionNames {
		row := []string{prec}
		for _, col := range cols[p] {
			row = append(row, pct(geomean(col)))
		}
		r.AddRow(append(row, "100%")...)
	}
	return r
}

// Matched configurations of Section V:
//   - vs Bit Fusion: equal 2-bit multiplier counts — Ristretto 32 tiles × 32
//     mults (ristretto.DefaultConfig) vs an 8×8 fusion-unit array (1024 each).
//   - vs Laconic: equal compute area — Ristretto 32 × 16 vs 6×8 PEs × 16.
//   - vs SparTen: equal peak BitOps/cycle — Ristretto 32 × 16 vs 32 CUs.
func ristrettoVsLaconic() ristretto.Config {
	return ristretto.Config{Tiles: 32, Tile: ristretto.TileConfig{Mults: 16, Gran: 2}, Policy: balance.WeightAct}
}

// Figure12 compares area-normalized performance against Bit Fusion on the
// six networks at 8/4/2-bit and mixed 2/4-bit precision, including the
// sparsity-disabled Ristretto-ns variant.
func (b *Bench) Figure12() *Result {
	r := &Result{
		ID:     "Figure 12",
		Title:  "performance vs Bit Fusion (normalized to Bit Fusion, area-normalized)",
		Header: []string{"network", "precision", "Ristretto", "Ristretto-ns", "Bit Fusion"},
		Notes:  "paper averages: 8.2x / 7.47x / 7.13x / 6.73x at 8/4/2/mixed bits; Ristretto-ns ≈ Bit Fusion",
	}
	rcfg := ristretto.DefaultConfig()
	ris, ns, bf := accel.Must("ristretto"), accel.Must("ristretto-ns"), accel.Must("bitfusion")
	areaR := energy.RistrettoArea(rcfg.Tiles, rcfg.Tile.Mults, int(rcfg.Tile.Gran)).Total()
	return b.speedupFigure(r, PrecisionNames, rcfg.Tile.Gran, true, func(stats []workload.LayerStats) []float64 {
		cbf := bf.Estimate(stats, rcfg).Cycles
		return []float64{
			areaNormSpeedup(cbf, bf.Area, ris.Estimate(stats, rcfg).Cycles, areaR),
			areaNormSpeedup(cbf, bf.Area, ns.Estimate(stats, rcfg).Cycles, areaR),
		}
	}, "1.00")
}

// areaNormSpeedup returns (perf/area of the contender) / (perf/area of the
// baseline): cyclesBase/cyclesNew × areaBase/areaNew.
func areaNormSpeedup(cyclesBase int64, areaBase float64, cyclesNew int64, areaNew float64) float64 {
	return (float64(cyclesBase) / float64(cyclesNew)) * (areaBase / areaNew)
}

// Figure13 compares energy consumption against Bit Fusion (normalized to
// Bit Fusion) averaged over the six networks per precision.
func (b *Bench) Figure13() *Result {
	r := &Result{
		ID:     "Figure 13",
		Title:  "energy vs Bit Fusion (normalized to Bit Fusion, benchmark average)",
		Header: []string{"precision", "Ristretto energy", "of which DRAM", "Bit Fusion"},
		Notes:  "paper: 41.84% / 32.29% / 33.33% / 26.16% of Bit Fusion at 8/4/2/mixed bits",
	}
	rcfg := ristretto.DefaultConfig()
	ris, bf := accel.Must("ristretto"), accel.Must("bitfusion")
	return b.energyFigure(r, rcfg.Tile.Gran, func(stats []workload.LayerStats) []float64 {
		er := ris.Energy(rcfg).Split(ris.Estimate(stats, rcfg).Counters)
		eb := bf.Energy(rcfg).Split(bf.Estimate(stats, rcfg).Counters)
		return []float64{er.Total() / eb.Total(), er.OffChipPJ / er.Total()}
	})
}

// Figure14 compares performance against Laconic at matched compute area.
func (b *Bench) Figure14() *Result {
	r := &Result{
		ID:     "Figure 14",
		Title:  "performance vs Laconic (normalized to Laconic)",
		Header: []string{"network", "precision", "Ristretto speedup"},
		Notes:  "paper averages: 3.58x / 4.18x / 6.12x / 5.69x at 8/4/2/mixed bits (grows as precision narrows)",
	}
	rcfg := ristrettoVsLaconic()
	ris, lac := accel.Must("ristretto"), accel.Must("laconic")
	return b.speedupFigure(r, PrecisionNames, rcfg.Tile.Gran, true, func(stats []workload.LayerStats) []float64 {
		return []float64{float64(lac.Estimate(stats, rcfg).Cycles) / float64(ris.Estimate(stats, rcfg).Cycles)}
	})
}

// Figure15 measures one compute tile's performance against controlled atom
// and value sparsity on randomly generated tensors, using the cycle-accurate
// simulator.
func (b *Bench) Figure15() *Result {
	r := &Result{
		ID:     "Figure 15",
		Title:  "Ristretto cycle-simulated performance vs sparsity (one compute tile, random tensors)",
		Header: []string{"sweep", "density", "cycles", "speedup vs dense"},
		Notes:  "unlike Laconic (Figure 4), latency scales directly with stream density",
	}
	cfg := ristretto.Config{Tiles: 1, Tile: ristretto.TileConfig{Mults: 16, Gran: 2}}
	densities := []float64{1.0, 0.8, 0.6, 0.4, 0.2}
	type sweep struct {
		label       string
		valD, atomD func(d float64) float64
	}
	sweeps := []sweep{
		{"atom density (value density 1.0)", func(float64) float64 { return 1.0 }, func(d float64) float64 { return d }},
		{"value density (atom density 1.0)", func(d float64) float64 { return d }, func(float64) float64 { return 1.0 }},
	}
	cycles, err := mapCells(b, len(sweeps)*len(densities), func(i int) (int64, error) {
		sw := sweeps[i/len(densities)]
		d := densities[i%len(densities)]
		g := workload.NewGen(b.Seed)
		f := g.FeatureMapExact(8, 16, 16, 8, 2, sw.valD(d), sw.atomD(d))
		w := g.KernelsExact(16, 8, 3, 3, 8, 2, sw.valD(d), sw.atomD(d))
		return ristretto.SimulateConv(f, w, 1, 1, cfg).Cycles, nil
	})
	if err != nil {
		return r.fail(err)
	}
	dense := cycles[0] // both sweeps start at density 1.0 = the dense run
	for i, c := range cycles {
		r.AddRow(sweeps[i/len(densities)].label, f2(densities[i%len(densities)]),
			fmt.Sprint(c), f2(float64(dense)/float64(c)))
	}
	return r
}

// Figure16 compares energy against Laconic.
func (b *Bench) Figure16() *Result {
	r := &Result{
		ID:     "Figure 16",
		Title:  "energy vs Laconic (normalized to Laconic, benchmark average)",
		Header: []string{"precision", "Ristretto energy", "Laconic"},
		Notes:  "Laconic stores and moves operands densely; Ristretto's compressed formats cut buffer and DRAM energy",
	}
	rcfg := ristrettoVsLaconic()
	ris, lac := accel.Must("ristretto"), accel.Must("laconic")
	return b.energyFigure(r, rcfg.Tile.Gran, func(stats []workload.LayerStats) []float64 {
		er := ris.Energy(rcfg).TotalPJ(ris.Estimate(stats, rcfg).Counters)
		return []float64{er / lac.Energy(rcfg).TotalPJ(lac.Estimate(stats, rcfg).Counters)}
	})
}

// Figure17 compares performance against SparTen and SparTen-mp at matched
// peak BitOps/cycle and buffer capacity.
func (b *Bench) Figure17() *Result {
	r := &Result{
		ID:     "Figure 17",
		Title:  "performance vs SparTen and SparTen-mp (normalized to SparTen, area-normalized)",
		Header: []string{"network", "precision", "Ristretto", "SparTen-mp", "SparTen"},
		Notes:  "paper averages: Ristretto 3.01x/7.70x/8.54x/8.25x at 8/4/2/mixed bits; SparTen-mp in between",
	}
	rcfg := ristrettoVsLaconic() // 32×16: same peak BitOps as 32 8-bit CUs
	ris, st, mp := accel.Must("ristretto"), accel.Must("sparten"), accel.Must("sparten-mp")
	areaR := energy.RistrettoArea(rcfg.Tiles, rcfg.Tile.Mults, int(rcfg.Tile.Gran)).Total()
	return b.speedupFigure(r, PrecisionNames, rcfg.Tile.Gran, true, func(stats []workload.LayerStats) []float64 {
		cst := st.Estimate(stats, rcfg).Cycles
		return []float64{
			areaNormSpeedup(cst, st.Area, ris.Estimate(stats, rcfg).Cycles, areaR),
			areaNormSpeedup(cst, st.Area, mp.Estimate(stats, rcfg).Cycles, mp.Area),
		}
	}, "1.00")
}

// Figure18 visualizes load balancing on conv3_2 of 4-bit ResNet-18: 128
// input feature maps and their kernels distributed over 32 compute tiles
// under the three policies.
func (b *Bench) Figure18() *Result {
	r := &Result{
		ID:     "Figure 18",
		Title:  "load balancing of conv3_2 (4-bit ResNet-18), 128 input fmaps onto 32 compute tiles",
		Header: []string{"policy", "max tile cost", "min tile cost", "mean", "imbalance (max/mean)"},
		Notes:  "w/a balancing exploits that CSC latency is known before execution (Eq. 5)",
	}
	n, err := model.ByName("ResNet-18")
	if err != nil {
		return r.fail(err)
	}
	stats := b.Stats(n, "4b", 2)
	var st workload.LayerStats
	found := false
	for _, s := range stats {
		if s.Layer.Name == "conv3_2" {
			st, found = s, true
			break
		}
	}
	if !found {
		return r.fail(fmt.Errorf("experiments: conv3_2 not found in ResNet-18"))
	}
	const mults = 32
	costs := make([]int64, st.Layer.C)
	for c := range costs {
		costs[c] = balance.Cost(st.ActAtomsPerChan[c], st.WAtomsPerChan[c], mults)
	}
	for _, p := range []balance.Policy{balance.None, balance.WeightOnly, balance.WeightAct} {
		groups := balance.Assign(p, costs, st.WAtomsPerChan, 32)
		gc := balance.GroupCosts(groups, costs)
		max, min, mean := balance.Spread(gc)
		r.AddRow(p.String(), fmt.Sprint(max), fmt.Sprint(min), f1(mean), f2(float64(max)/mean))
	}
	return r
}

// Figure19a reports compute-unit area and power across atom granularities at
// matched BitOps/cycle (64×1b, 16×2b, 7×3b multipliers per tile).
func (b *Bench) Figure19a() *Result {
	r := &Result{
		ID:     "Figure 19a",
		Title:  "compute-unit area and power vs atom granularity (matched BitOps/cycle)",
		Header: []string{"granularity", "multipliers/tile", "relative area", "relative power"},
		Notes:  "paper: the 1-bit variant costs 3.34x area and 3.51x power of the 2-bit design",
	}
	mults := map[int]int{1: 64, 2: 16, 3: 7}
	for _, gran := range []int{1, 2, 3} {
		a, p := energy.GranularityFactors(gran)
		r.AddRow(fmt.Sprintf("%db", gran), fmt.Sprint(mults[gran]), f2(a), f2(p))
	}
	return r
}

// Figure19b reports benchmark-average area-normalized performance across
// atom granularities and bit-widths.
func (b *Bench) Figure19b() *Result {
	r := &Result{
		ID:     "Figure 19b",
		Title:  "benchmark-average area-normalized performance vs atom granularity",
		Header: []string{"precision", "1-bit atoms", "2-bit atoms", "3-bit atoms"},
		Notes:  "paper: 2-bit achieves the best average performance",
	}
	mults := map[int]int{1: 64, 2: 16, 3: 7}
	precs := []string{"8b", "4b", "2b"}
	grans := []int{1, 2, 3}
	perfAt, err := mapCells(b, len(precs)*len(grans), func(i int) (float64, error) {
		prec := precs[i/len(grans)]
		gran := grans[i%len(grans)]
		cfg := ristretto.Config{Tiles: 32, Tile: ristretto.TileConfig{Mults: mults[gran], Gran: atom.Granularity(gran)}, Policy: balance.WeightAct}
		// Normalize by compute-unit area (Figure 19a's subject); the
		// buffer complement is identical across the three designs.
		ab := energy.RistrettoArea(32, mults[gran], gran)
		area := ab.Atomizer + ab.Atomputer + ab.Atomulator + ab.AccBuffer
		var perfs []float64
		for _, n := range b.Networks() {
			stats := b.Stats(n, prec, atom.Granularity(gran))
			cy := ristretto.EstimateNetwork(stats, cfg).Cycles
			perfs = append(perfs, 1e12/(float64(cy)*area))
		}
		return geomean(perfs), nil
	})
	if err != nil {
		return r.fail(err)
	}
	colPerf := map[int][]float64{}
	for pi, prec := range precs {
		row := []string{prec}
		base := perfAt[pi*len(grans)] // gran == 1 column
		for gi, gran := range grans {
			p := perfAt[pi*len(grans)+gi]
			colPerf[gran] = append(colPerf[gran], p/base)
			row = append(row, f2(p/base))
		}
		r.AddRow(row...)
	}
	avg := []string{"average"}
	for _, gran := range []int{1, 2, 3} {
		avg = append(avg, f2(geomean(colPerf[gran])))
	}
	r.AddRow(avg...)
	return r
}
