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
// must have l's shape, at any width the tensors hold (16 bits included).
// The weights are already pruned, so every non-zero one counts (t = 0),
// and their filters are metered on the caller.
func StatsFromTensors(l model.Layer, f *tensor.FeatureMap, k *tensor.KernelStack, gran atom.Granularity, booth bool) LayerStats {
	m := newMeter(l, k.Bits, f.Bits, gran)
	var hist []int
	for c := 0; c < f.C; c++ {
		hist = quant.MagnitudeHist(f.Channel(c), hist)
		m.plane(c, hist)
	}
	m.prune(quant.MagnitudeHist(k.Data, nil), 0, 0, 1)
	filters(m, k.Data, 0, l.K, 0)
	m.merge()
	return m.finish(booth)
}

// LayerStats draws a layer's operands exactly as LayerOperands does and
// measures them as StatsFromTensors would, without materializing them.
// It is NetworkStats on one layer, and panics as it does at a width
// outside 2 to 8 bits. The booth flag selects NAF (true) or popcount term
// counting for the bit-serial histograms.
func (g *Gen) LayerStats(l model.Layer, wbits, abits int, gran atom.Granularity, t Targets, booth bool) LayerStats {
	return g.stats([]model.Layer{l}, []int{wbits}, []int{abits}, []Targets{t}, gran, booth)[0]
}

// NetworkStats generates statistics for every layer of a network under a
// precision assignment of 2 to 8 bits per operand. It panics, naming the
// width, at any other.
func (g *Gen) NetworkStats(n *model.Network, p model.Precision, gran atom.Granularity, booth bool) []LayerStats {
	ts := make([]Targets, len(n.Layers))
	for i := range n.Layers {
		ts[i] = EvalTargets(n.Name, p.WBits[i], p.ABits[i])
	}
	return g.stats(n.Layers, p.WBits, p.ABits, ts, gran, booth)
}

// stats draws layers ls at the given widths and targets through one
// synthesis pipeline and measures them. Each layer's activation planes are
// coded on the caller into the generator's plane scratch, and each plane's
// magnitude histogram is pruned instead of the plane. Its weights are then
// coded into a weight slot as byte magnitudes and metered through the
// pruning threshold instead of pruned (meter.prune).
func (g *Gen) stats(ls []model.Layer, wbits, abits []int, ts []Targets, gran atom.Granularity, booth bool) []LayerStats {
	ws := make([]*weightDraw, len(ls))
	for i, l := range ls {
		ws[i] = &weightDraw{tab: weightTable(wbits[i]), density: ts[i].WDensity, n: int(l.Weights()), m: newMeter(l, wbits[i], abits[i], gran)}
	}
	// Size the slots once, at full size: growing them layer by layer
	// leaves garbage.
	var mags, hists int
	for _, w := range ws {
		m, h := w.needs(chunkLen)
		mags, hists = max(mags, m), max(hists, h)
	}
	for i := range g.slots {
		grow(&g.slots[i].mags, mags)
		grow(&g.slots[i].hists, hists)
	}
	g.synthesize(ws, chunkLen, func(i int) { g.planes(ws[i].m, ts[i].ADensity) })
	out := make([]LayerStats, len(ls))
	for i, w := range ws {
		w.m.merge()
		out[i] = w.m.finish(booth)
	}
	return out
}

// planes draws m's layer's activation planes on the caller's goroutine,
// each coded into the generator's plane scratch, and meters each plane's
// magnitude histogram, pruned to the plane's density target.
func (g *Gen) planes(m *meter, aDensity float64) {
	tab := actTable(m.s.ABits)
	l := m.s.Layer
	hist, plane := make([]int, tab.q.MaxCode()+1), grow(&g.plane, l.H*l.W)
	for c := 0; c < l.C; c++ {
		drawPlane(g, plane, tab, planeDensity(aDensity, c), hist)
		m.plane(c, hist)
	}
}

// meter accumulates LayerStats from magnitude histograms and weight words.
// LayerStats and StatsFromTensors both measure through it, so the drawn and
// the materialized path share every counting rule.
type meter struct {
	s            LayerStats
	aHist, wHist []int

	// A weight's packed counts by magnitude (prune), before the tie cut
	// and from it on, and worker w's per-channel sums at [w*C, (w+1)*C).
	before, after []uint64
	cut, workers  int
	perChan       []uint64
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

// prune readies the meter for weights whose pruned magnitude histogram is
// hist, pruned at threshold t with tie cut cut, metered by up to workers
// goroutines. The weights are read without rewriting them: before cut a
// weight counts when its magnitude is at least t, from cut on when it is
// above t. With t = 0 every non-zero weight counts.
func (m *meter) prune(hist []int, t, cut, workers int) {
	m.wHist, m.cut, m.workers = hist, cut, workers
	// A table entry packs one weight's non-zero count (high half) and atom
	// count (low half), so a single add per weight updates both. Neither
	// half of a per-channel or per-filter sum comes near 1<<32. The tables
	// cover every magnitude a byte holds, so filters reads byte words
	// through them without a bounds check.
	n := max(len(hist), 256)
	m.before, m.after = make([]uint64, n), make([]uint64, n)
	for mag := 1; mag < len(hist); mag++ {
		e := 1<<32 | uint64(atom.CountNonZero(int32(mag), m.s.WBits, m.s.Gran))
		if mag >= t {
			m.before[mag] = e
		}
		if mag > t {
			m.after[mag] = e
		}
	}
	m.perChan = make([]uint64, workers*m.s.Layer.C)
}

// filters meters filters [k0, k1) of words, laid out (k, c, y, x), on
// worker w: their per-filter counts, and w's per-channel sums.
func filters[W word](m *meter, words []W, k0, k1, w int) {
	l := m.s.Layer
	area, row := l.KH*l.KW, l.C*l.KH*l.KW
	sums := m.perChan[w*l.C:][:l.C]
	for k := k0; k < k1; k++ {
		lo := k * row
		var sum uint64
		switch {
		case lo+row <= m.cut:
			sum = blocks(sums, words[lo:lo+row], area, m.before)
		case lo >= m.cut:
			sum = blocks(sums, words[lo:lo+row], area, m.after)
		default: // the filter holds the cut
			for x, v := range words[lo : lo+row] {
				tab := m.after
				if lo+x < m.cut {
					tab = m.before
				}
				sums[x/area] += tab[magnitude(v)]
				sum += tab[magnitude(v)]
			}
		}
		m.s.WNZPerFilter[k], m.s.WAtomsPerFilter[k] = unpack(sum)
	}
}

// blocks adds the packed counts of a filter's words, read through tab, to
// the per-channel sums, one block of area words per channel, and returns
// their total. 1x1 and 3x3 blocks, nearly every layer's, are summed
// without an inner loop.
func blocks[W word](sums []uint64, words []W, area int, tab []uint64) (sum uint64) {
	_ = tab[255]
	switch area {
	case 1:
		for c, v := range words[:len(sums)] {
			s := tab[magnitude(v)]
			sums[c] += s
			sum += s
		}
	case 9:
		for c := range sums {
			b := words[c*9:][:9:9]
			s := tab[magnitude(b[0])] + tab[magnitude(b[1])] + tab[magnitude(b[2])] +
				tab[magnitude(b[3])] + tab[magnitude(b[4])] + tab[magnitude(b[5])] +
				tab[magnitude(b[6])] + tab[magnitude(b[7])] + tab[magnitude(b[8])]
			sums[c] += s
			sum += s
		}
	default:
		for c := range sums {
			var s uint64
			for _, v := range words[c*area:][:area] {
				s += tab[magnitude(v)]
			}
			sums[c] += s
			sum += s
		}
	}
	return sum
}

// merge sums the workers' per-channel counts.
func (m *meter) merge() {
	l := m.s.Layer
	for c := range l.C {
		var s uint64
		for w := range m.workers {
			s += m.perChan[w*l.C+c]
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
