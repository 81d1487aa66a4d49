package workload

import (
	"ristretto/internal/atom"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/tensor"
)

// LayerStats carries everything the analytic performance models need about
// one layer's operands: value/atom densities, per-input-channel atom counts
// (for load balancing and channel-wise tile mapping), and effectual-term
// histograms (for the bit-serial Laconic model).
type LayerStats struct {
	Layer        model.Layer
	WBits, ABits int
	Gran         atom.Granularity

	W quant.Stats // weights
	A quant.Stats // input activations

	// Per input channel c: non-zero atoms of the activation plane (T_c) and
	// of the kernel slice across all K output channels (S_c). These feed
	// Eq. 3/5 and the Figure 18 balancing study.
	ActAtomsPerChan []int
	WAtomsPerChan   []int
	ActNZPerChan    []int
	WNZPerChan      []int

	// Per output channel (filter) k: non-zero weights and atoms. SparTen
	// assigns filters to compute units greedily by these statistics.
	WNZPerFilter    []int
	WAtomsPerFilter []int

	// Effectual-term histograms (index = #terms, value = element count,
	// including zero values at index 0) for Laconic's ta×tw workloads.
	ATermHist []int
	WTermHist []int
}

// StatsFromTensors measures LayerStats from materialized operands, which
// must have l's shape.
func StatsFromTensors(l model.Layer, f *tensor.FeatureMap, k *tensor.KernelStack, gran atom.Granularity, booth bool) LayerStats {
	m := newMeter(l, k.Bits, f.Bits, gran)
	var hist []int
	for c := 0; c < f.C; c++ {
		hist = quant.MagnitudeHist(f.Channel(c), hist)
		m.plane(c, hist)
	}
	m.weights(k.Data, quant.MagnitudeHist(k.Data, nil), 0, 0)
	return m.finish(booth)
}

// LayerStats draws a layer's operands exactly as LayerOperands does and
// measures them as StatsFromTensors would, without materializing them:
// each activation plane is coded into a scratch buffer the generator
// reuses across layers, and its magnitude histogram is pruned instead of
// the plane; the weight codes then go into the same scratch, where the
// meter reads them through the pruning threshold instead of pruning them.
// The booth flag selects NAF (true) or popcount term counting for the
// bit-serial histograms.
func (g *Gen) LayerStats(l model.Layer, wbits, abits int, gran atom.Granularity, t Targets, booth bool) LayerStats {
	m := newMeter(l, wbits, abits, gran)
	tab := actTable(abits)
	hist := make([]int, tab.q.MaxCode()+1)
	plane := g.scratch(l.H * l.W)
	for c := 0; c < l.C; c++ {
		clear(hist)
		g.drawCodes(plane, hist, tab)
		quant.PruneHist(hist, planeDensity(t.ADensity, c))
		m.plane(c, hist)
	}

	codes := g.scratch(int(l.Weights()))
	wHist, wt, surplus := g.drawWeights(codes, wbits, t.WDensity, chunkLen)
	m.weights(codes, wHist, wt, g.tieCut(codes, wt, surplus, len(wHist), chunkLen))
	return m.finish(booth)
}

// scratch returns the generator's scratch at length n, growing it when it
// is shorter.
func (g *Gen) scratch(n int) []int32 {
	if cap(g.codes) < n {
		g.codes = make([]int32, n)
	}
	return g.codes[:n]
}

// NetworkStats generates statistics for every layer of a network under a
// precision assignment.
func (g *Gen) NetworkStats(n *model.Network, p model.Precision, gran atom.Granularity, booth bool) []LayerStats {
	out := make([]LayerStats, len(n.Layers))
	// Size the scratch and the per-chunk histograms once, at full size:
	// growing them layer by layer leaves garbage.
	most, slab := 0, 0
	for i, l := range n.Layers {
		w := int(l.Weights())
		most = max(most, w, l.H*l.W)
		slab = max(slab, (w+chunkLen-1)/chunkLen*histStride(weightQuantizer(p.WBits[i]).MaxCode()+1))
	}
	g.scratch(most)
	g.chunkHists(slab)
	for i, l := range n.Layers {
		t := EvalTargets(n.Name, p.WBits[i], p.ABits[i])
		out[i] = g.LayerStats(l, p.WBits[i], p.ABits[i], gran, t, booth)
	}
	return out
}

// meter accumulates LayerStats from magnitude histograms and weight codes.
// LayerStats and StatsFromTensors both measure through it, so the drawn and
// the materialized path share every counting rule.
type meter struct {
	s            LayerStats
	aHist, wHist []int
}

func newMeter(l model.Layer, wbits, abits int, gran atom.Granularity) *meter {
	return &meter{s: LayerStats{
		Layer: l, WBits: wbits, ABits: abits, Gran: gran,
		ActAtomsPerChan: make([]int, l.C),
		WAtomsPerChan:   make([]int, l.C),
		ActNZPerChan:    make([]int, l.C),
		WNZPerChan:      make([]int, l.C),
		WNZPerFilter:    make([]int, l.K),
		WAtomsPerFilter: make([]int, l.K),
	}}
}

// plane folds in the magnitude histogram of input channel c's activations.
func (m *meter) plane(c int, hist []int) {
	for len(m.aHist) < len(hist) {
		m.aHist = append(m.aHist, 0)
	}
	for mag, n := range hist {
		m.aHist[mag] += n
		if mag > 0 && n > 0 {
			m.s.ActNZPerChan[c] += n
			m.s.ActAtomsPerChan[c] += n * atom.CountNonZero(int32(mag), m.s.ABits, m.s.Gran)
		}
	}
}

// weights folds in the layer's kernel stack, its codes laid out (k, c, y,
// x), as quant.PruneAt(codes, t, surplus) would leave them, where cut is
// quant.TieCut(codes, t, surplus), and hist, their pruned magnitude
// histogram. It reads the codes without rewriting them: before cut a
// weight counts when its magnitude is at least t, from cut on when it is
// above t. With t = 0 every non-zero weight counts. The filters are split
// across workers, whose per-channel sums are merged in order.
func (m *meter) weights(codes []int32, hist []int, t, cut int) {
	m.wHist = hist
	// A table entry packs one weight's non-zero count (high half) and atom
	// count (low half), so a single add per weight updates both. Neither
	// half of a per-channel or per-filter sum comes near 1<<32.
	before, after := make([]uint64, len(hist)), make([]uint64, len(hist))
	for mag := 1; mag < len(hist); mag++ {
		e := 1<<32 | uint64(atom.CountNonZero(int32(mag), m.s.WBits, m.s.Gran))
		if mag >= t {
			before[mag] = e
		}
		if mag > t {
			after[mag] = e
		}
	}
	l := m.s.Layer
	area := l.KH * l.KW
	w := procs(l.K)
	perChan := make([]uint64, w*l.C) // worker i's sums at [i*l.C, (i+1)*l.C)
	fanOut(w, func(i int) {
		sums := perChan[i*l.C : (i+1)*l.C]
		for k := i * l.K / w; k < (i+1)*l.K/w; k++ {
			var sum uint64
			for c := range sums {
				lo := (k*l.C + c) * area
				blk, tab := codes[lo:lo+area], after
				var s uint64
				if lo+area <= cut {
					tab = before
				} else if lo < cut { // the block holds the cut
					for _, v := range blk[:cut-lo] {
						s += before[atom.Magnitude(v)]
					}
					blk = blk[cut-lo:]
				}
				for _, v := range blk {
					s += tab[atom.Magnitude(v)]
				}
				sums[c] += s
				sum += s
			}
			m.s.WNZPerFilter[k], m.s.WAtomsPerFilter[k] = unpack(sum)
		}
	})
	for c := range l.C {
		var s uint64
		for i := range w {
			s += perChan[i*l.C+c]
		}
		m.s.WNZPerChan[c], m.s.WAtomsPerChan[c] = unpack(s)
	}
}

// unpack splits a packed tab sum into its non-zero and atom counts.
func unpack(s uint64) (nz, atoms int) { return int(s >> 32), int(uint32(s)) }

// finish derives the totals and term histograms from the layer histograms.
func (m *meter) finish(booth bool) LayerStats {
	m.s.A = quant.MeasureHist(m.aHist, m.s.ABits, m.s.Gran)
	m.s.W = quant.MeasureHist(m.wHist, m.s.WBits, m.s.Gran)
	m.s.ATermHist = atom.MagTermHistogram(m.aHist, booth)
	m.s.WTermHist = atom.MagTermHistogram(m.wHist, booth)
	return m.s
}
