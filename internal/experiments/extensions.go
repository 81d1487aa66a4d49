package experiments

import (
	"fmt"

	"ristretto/internal/accel"
	"ristretto/internal/balance"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/ristretto"
	"ristretto/internal/sparse"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// Extension studies: experiments beyond the paper's figures that exercise
// the systems its text describes — the Table I sparse-accelerator trio, the
// Figure 3 modified-Laconic strawman, Section IV-C3's stride handling,
// Section IV-D's high-precision modes, and the design choices DESIGN.md
// calls out (FIFO depth, compression formats).

// ExtTableI compares Ristretto against all three dual-sided sparse
// accelerators of Table I (SCNN, SparTen, SNAP) at matched scale: cycles
// normalized to SparTen.
func (b *Bench) ExtTableI() *Result {
	r := &Result{
		ID:     "Extension A (Table I trio)",
		Title:  "Ristretto vs the dual-sided sparse accelerators of Table I (cycles, normalized to SparTen)",
		Header: []string{"network", "precision", "Ristretto", "SCNN", "SNAP", "SparTen"},
		Notes:  "value-level sparse designs cannot exploit narrow precision; Ristretto's atom streams can",
	}
	rcfg := ristrettoVsLaconic()
	ris, st, sc, sn := accel.Must("ristretto"), accel.Must("sparten"), accel.Must("scnn"), accel.Must("snap")
	return b.speedupFigure(r, []string{"8b", "2b"}, rcfg.Tile.Gran, true, func(stats []workload.LayerStats) []float64 {
		cst := float64(st.Estimate(stats, rcfg).Cycles)
		return []float64{
			cst / float64(ris.Estimate(stats, rcfg).Cycles),
			cst / float64(sc.Estimate(stats, rcfg).Cycles),
			cst / float64(sn.Estimate(stats, rcfg).Cycles),
		}
	}, "1.00")
}

// ExtFigure3 quantifies the Figure 3 strawman: plain Laconic vs the
// CSR+AIM-modified Laconic vs Ristretto, in cycles and compute-area-
// normalized performance.
func (b *Bench) ExtFigure3() *Result {
	r := &Result{
		ID:     "Extension B (Figure 3)",
		Title:  "modified Laconic (CSR + per-PE AIM) vs plain Laconic vs Ristretto",
		Header: []string{"network", "precision", "modified speedup (cycles)", "modified speedup (area-norm)", "Ristretto speedup (area-norm)"},
		Notes:  "the modification helps cycles but pays 1.6x PE area; Ristretto's unified dataflow needs no bolt-on matching",
	}
	rcfg := ristrettoVsLaconic()
	ris, lac, mod := accel.Must("ristretto"), accel.Must("laconic"), accel.Must("laconic-mod")
	areaR := energy.RistrettoArea(rcfg.Tiles, rcfg.Tile.Mults, int(rcfg.Tile.Gran)).Total()
	return b.speedupFigure(r, []string{"8b", "2b"}, rcfg.Tile.Gran, false, func(stats []workload.LayerStats) []float64 {
		cl := lac.Estimate(stats, rcfg).Cycles
		cm := mod.Estimate(stats, rcfg).Cycles
		return []float64{
			float64(cl) / float64(cm),
			areaNormSpeedup(cl, lac.Area, cm, mod.Area),
			areaNormSpeedup(cl, lac.Area, ris.Estimate(stats, rcfg).Cycles, areaR),
		}
	})
}

// ExtStride quantifies Section IV-C3: the naive full-stride-1 intersection
// (ineffectual outputs computed and discarded) versus the stride-phase
// decomposition, on the strided layers of the benchmark.
func (b *Bench) ExtStride() *Result {
	r := &Result{
		ID:     "Extension C (stride handling)",
		Title:  "naive stride-1 intersection vs stride-phase decomposition (network cycles)",
		Header: []string{"network", "naive cycles", "phase cycles", "phase speedup"},
		Notes:  "the naive mode follows Section IV-C3 literally; strided layers pay up to stride^2",
	}
	base := ristrettoVsBitFusion()
	naive := base
	naive.NaiveStride = true
	nets := b.Networks()
	cells, err := mapCells(b, len(nets), func(i int) ([2]int64, error) {
		stats := b.Stats(nets[i], "8b", base.Tile.Gran)
		return [2]int64{
			ristretto.EstimateNetwork(stats, naive).Cycles,
			ristretto.EstimateNetwork(stats, base).Cycles,
		}, nil
	})
	if err != nil {
		return r.fail(err)
	}
	for i, n := range nets {
		cn, cp := cells[i][0], cells[i][1]
		r.AddRow(n.Name, fmt.Sprint(cn), fmt.Sprint(cp), f2(float64(cn)/float64(cp)))
	}
	return r
}

// ExtFIFO sweeps the Atomulator FIFO depth on the cycle simulator with a
// contention-heavy configuration (few output channels), the design knob the
// crossbar discussion of Section IV-C3 motivates.
func (b *Bench) ExtFIFO() *Result {
	r := &Result{
		ID:     "Extension D (FIFO depth)",
		Title:  "cycle-simulated stalls vs Atomulator FIFO depth (4 output channels, 16 multipliers)",
		Header: []string{"FIFO depth", "cycles", "stall cycles", "stall fraction"},
		Notes:  "with 4 banks serving 16 multipliers the crossbar bandwidth dominates: FIFOs only shave bursts, so SCNN-style shallow FIFOs suffice (channel-first weight mapping is what actually avoids the contention)",
	}
	g := workload.NewGen(b.Seed)
	f := g.FeatureMapExact(4, 16, 16, 2, 2, 0.9, 1.0) // 2-bit: every atom delivers
	w := g.KernelsExact(4, 4, 3, 3, 8, 2, 0.8, 0.8)
	depths := []int{1, 2, 4, 8, 16}
	// The operands are generated once (sequentially, above) and shared
	// read-only; only the per-depth simulations fan out.
	sims, err := mapCells(b, len(depths), func(i int) (ristretto.SimResult, error) {
		cfg := ristretto.Config{Tiles: 1, Tile: ristretto.TileConfig{Mults: 16, Gran: 2, FIFODepth: depths[i]}}
		return ristretto.SimulateConv(f, w, 1, 1, cfg), nil
	})
	if err != nil {
		return r.fail(err)
	}
	for i, sim := range sims {
		r.AddRow(fmt.Sprint(depths[i]), fmt.Sprint(sim.Cycles), fmt.Sprint(sim.Stalls),
			pct(float64(sim.Stalls)/float64(sim.Cycles)))
	}
	return r
}

// ExtFormats measures the encoded size of the three compression formats
// across bit-widths at the benchmark's typical densities — the data behind
// EXPERIMENTS.md note 2 (metadata dominates narrow payloads).
func (b *Bench) ExtFormats() *Result {
	r := &Result{
		ID:     "Extension E (formats)",
		Title:  "compressed size vs dense, per format (16x16 tile at benchmark densities)",
		Header: []string{"bits", "density", "COO-2D", "bitmap", "CSR", "dense"},
		Notes:  "at 2 bits the coordinate metadata exceeds the payload: compression stops paying off off-chip",
	}
	g := workload.NewGen(b.Seed)
	for _, bits := range []int{8, 4, 2} {
		d := workload.EvalTargets("VGG-16", bits, bits).ADensity
		f := g.FeatureMapExact(1, 16, 16, bits, 2, d, 0.8)
		denseBits := 16 * 16 * bits
		coo := sparse.EncodeTile(f, 0, tensor.Tile{W: 16, H: 16}).SizeBits()
		bm := sparse.EncodeBitmap(f.Channel(0), bits)
		bmBits := 16*16 + bm.NNZ()*bits
		csr := sparse.EncodeCSR(f.Channel(0), 16, 16, bits).SizeBits()
		r.AddRow(fmt.Sprintf("%db", bits), f2(d),
			pct(float64(coo)/float64(denseBits)),
			pct(float64(bmBits)/float64(denseBits)),
			pct(float64(csr)/float64(denseBits)),
			"100%")
	}
	return r
}

// ExtHighPrecision exercises Section IV-D: a 16-bit layer run through
// spatial extension (wide shifters, direct CSC) versus temporal
// decomposition (four 8-bit sub-models), comparing intersection steps.
func (b *Bench) ExtHighPrecision() *Result {
	r := &Result{
		ID:     "Extension F (16-bit modes)",
		Title:  "16-bit inference: spatial extension vs temporal decomposition (CSC steps)",
		Header: []string{"mode", "steps", "atom products", "note"},
	}
	f := tensor.NewFeatureMap(4, 12, 12, 16)
	for i := range f.Data {
		f.Data[i] = int32(uint32(i*2654435761) % 65536)
		if i%3 == 0 {
			f.Data[i] = 0
		}
	}
	w := tensor.NewKernelStack(4, 4, 3, 3, 16)
	for i := range w.Data {
		if i%2 == 0 {
			w.Data[i] = int32(uint32(i*40503)%65535) - 32767
		}
	}
	cfg := core.Config{Gran: 2, Multiplier: 16}
	_, spatial := core.Convolve(f, w, 1, 1, cfg)
	subs := ristretto.TemporalDecompose(f, w)
	_, temporal := ristretto.ConvolveDecomposed(subs, 1, 1, cfg)
	r.AddRow("spatial extension", fmt.Sprint(spatial.Steps), fmt.Sprint(spatial.Products), "wider shifters {0,2,...,14}")
	r.AddRow("temporal decomposition", fmt.Sprint(temporal.Steps), fmt.Sprint(temporal.Products), "4 sequential 8-bit sub-models, no shifter change")
	return r
}

// ExtBalancingNetworks evaluates the three balancing policies across the
// whole benchmark (not just conv3_2), reporting network-level speedup of
// w/a balancing over the alternatives.
func (b *Bench) ExtBalancingNetworks() *Result {
	r := &Result{
		ID:     "Extension G (balancing across networks)",
		Title:  "network cycles by balancing policy (4-bit models), normalized to no balancing",
		Header: []string{"network", "no balancing", "w balancing", "w/a balancing"},
	}
	base := ristrettoVsBitFusion()
	nets := b.Networks()
	cells, err := mapCells(b, len(nets), func(i int) ([3]int64, error) {
		stats := b.Stats(nets[i], "4b", base.Tile.Gran)
		var cy [3]int64
		for j, p := range []balance.Policy{balance.None, balance.WeightOnly, balance.WeightAct} {
			cfg := base
			cfg.Policy = p
			cy[j] = ristretto.EstimateNetwork(stats, cfg).Cycles
		}
		return cy, nil
	})
	if err != nil {
		return r.fail(err)
	}
	for i, n := range nets {
		cy := cells[i]
		r.AddRow(n.Name, "1.00", f2(float64(cy[1])/float64(cy[0])), f2(float64(cy[2])/float64(cy[0])))
	}
	return r
}

// ExtMultiCore scales the Ristretto core count (Figure 7 shows a multi-core
// organization) and reports strong-scaling efficiency on ResNet-50: output
// channels split across cores, per-core tiles unchanged.
func (b *Bench) ExtMultiCore() *Result {
	r := &Result{
		ID:     "Extension H (multi-core scaling)",
		Title:  "strong scaling of compute tiles (ResNet-50, 4-bit), normalized to 32 tiles",
		Header: []string{"tiles", "cycles", "speedup", "efficiency"},
		Notes:  "tile-count scaling saturates when channel groups run out (C < tiles on early layers)",
	}
	n := b.Networks()[len(b.Networks())-1]
	stats := b.Stats(n, "4b", 2)
	tileCounts := []int{32, 64, 128, 256}
	cycles, err := mapCells(b, len(tileCounts), func(i int) (int64, error) {
		cfg := ristrettoVsBitFusion()
		cfg.Tiles = tileCounts[i]
		return ristretto.EstimateNetwork(stats, cfg).Cycles, nil
	})
	if err != nil {
		return r.fail(err)
	}
	base := cycles[0] // 32 tiles
	for i, cy := range cycles {
		tiles := tileCounts[i]
		sp := float64(base) / float64(cy)
		r.AddRow(fmt.Sprint(tiles), fmt.Sprint(cy), f2(sp), pct(sp/(float64(tiles)/32)))
	}
	return r
}
