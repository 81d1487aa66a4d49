package quant

import (
	"math/rand"

	"ristretto/internal/atom"
)

// SweepRow is one bit-width of Sweep: the statistics of the weight and the
// activation population quantized at Bits.
type SweepRow struct {
	Bits          int
	Weights, Acts Stats
}

// Sweep is the statistical quantization study behind Figure 1. It draws n
// standard Gaussians from seed and, at each bit-width, quantizes them as
// signed weights and as rectified activations with the default clips,
// prunes each population to pruneW or pruneA density when that is positive,
// and measures both at atom granularity g.
func Sweep(n int, seed int64, bits []int, g atom.Granularity, pruneW, pruneA float64) []SweepRow {
	rng := rand.New(rand.NewSource(seed))
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	rows := make([]SweepRow, len(bits))
	for i, b := range bits {
		w := QuantizeSigned(raw, 1, Config{Bits: b, ClipSigma: DefaultWeightClip(b)})
		a := QuantizeUnsigned(raw, 1, Config{Bits: b, ClipSigma: DefaultActClip(b)})
		if pruneW > 0 {
			PruneToDensity(w, pruneW)
		}
		if pruneA > 0 {
			PruneToDensity(a, pruneA)
		}
		rows[i] = SweepRow{Bits: b, Weights: Measure(w, b, g), Acts: Measure(a, b, g)}
	}
	return rows
}
