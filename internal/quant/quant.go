// Package quant implements the uniform quantization and magnitude pruning
// used to produce the low-precision sparse operands of the study, plus the
// value/atom density statistics (αv, αa, βv, βa) that govern condensed
// streaming computation latency.
//
// The paper quantizes ImageNet-trained networks with a uniform quantizer and
// reports (Figure 1) that sparsity of both weights and activations grows as
// bit-width shrinks, reaching 47.43%/75.25% average weight/activation
// sparsity at 2 bits without pruning. We reproduce the mechanism: a uniform
// symmetric quantizer maps every value whose magnitude falls below half a
// quantization step to zero, so coarser steps (fewer bits) produce more
// zeros. The clip point (in units of the distribution's standard deviation)
// is per-bit-width calibrated the way learned-step quantization schemes
// behave: aggressive clipping at low bit-widths.
package quant

import (
	"fmt"
	"math"

	"ristretto/internal/atom"
)

// Config selects a uniform quantizer.
type Config struct {
	Bits      int     // target bit-width (2..8, or 16)
	ClipSigma float64 // clip point in standard deviations of the source data
}

// DefaultWeightClip returns a clip point (in σ) for signed weight
// quantization at the given bit-width. The values follow the trend of
// learned clipping (PACT/LSQ-style): tight clips at low precision. With
// Gaussian weights they yield zero fractions matching Figure 1's trend
// (≈47% at 2 bits, low single digits at 8 bits).
func DefaultWeightClip(bits int) float64 {
	switch {
	case bits <= 2:
		return 1.28
	case bits <= 3:
		return 1.8
	case bits <= 4:
		return 2.5
	case bits <= 6:
		return 3.2
	default:
		return 4.0
	}
}

// DefaultActClip returns a clip point (in σ of the pre-ReLU distribution)
// for unsigned activation quantization. Post-ReLU activations are half-
// Gaussian, so ~50% are already zero; the quantization dead-zone adds more
// at low bit-widths (≈75% total at 2 bits per Figure 1).
func DefaultActClip(bits int) float64 {
	switch {
	case bits <= 2:
		return 4.0
	case bits <= 3:
		return 4.0
	case bits <= 4:
		return 4.2
	case bits <= 6:
		return 4.5
	default:
		return 5.0
	}
}

// Quantizer is the per-value arithmetic of one uniform quantizer.
// QuantizeSigned and QuantizeUnsigned apply it to a slice; workload
// synthesis applies it to each value as it is drawn.
type Quantizer struct {
	scale  float64
	lo, hi float64 // code range; the quotient is clamped to it before rounding
	// Code maps every v <= reluAt to 0. reluAt is NaN, so never matched, for
	// the signed quantizer and for a ReLU with a positive step, where the
	// clamp at lo = 0 already zeroes every v <= 0 without a branch. Only a
	// degenerate ReLU (clip or std not positive) tests v itself.
	reluAt float64
}

// NewSigned returns the symmetric signed quantizer of QuantizeSigned for
// real values with standard deviation std. It panics below 2 bits.
func NewSigned(std float64, cfg Config) Quantizer {
	if cfg.Bits < 2 {
		panic(fmt.Sprintf("quant: signed quantization needs >=2 bits, got %d", cfg.Bits))
	}
	qmax := float64(int32(1)<<(cfg.Bits-1) - 1)
	return Quantizer{scale: cfg.ClipSigma * std / qmax, lo: -qmax, hi: qmax, reluAt: math.NaN()}
}

// NewUnsigned returns the ReLU-then-quantize quantizer of QuantizeUnsigned
// for pre-activation values with standard deviation std.
func NewUnsigned(std float64, cfg Config) Quantizer {
	qmax := float64(int32(1)<<cfg.Bits - 1)
	q := Quantizer{scale: cfg.ClipSigma * std / qmax, hi: qmax, reluAt: math.NaN()}
	if !(q.scale > 0) { // v > 0 may give a negative or NaN quotient here
		q.lo, q.reluAt = math.MinInt32, 0
	}
	return q
}

// Code returns the integer code of v: v/scale rounded half away from zero
// (math.Round), then clamped to the code range. Clamping first gives the
// same code, as the bounds are integers, and keeps the quotient inside
// int32, where its exact fraction r - trunc(r) decides the rounding without
// a branch on v. A NaN quotient yields math.MinInt32, as int32(math.NaN())
// does.
func (q Quantizer) Code(v float64) int32 {
	r := max(min(v/q.scale, q.hi), q.lo)
	c := int32(r)
	c += int32(2 * (r - float64(c))) // ±1 once the fraction reaches ±0.5
	if r != r {
		c = math.MinInt32
	}
	if v <= q.reluAt {
		c = 0
	}
	return c
}

// MaxCode returns the largest code magnitude the quantizer produces.
func (q Quantizer) MaxCode() int { return int(q.hi) }

// QuantizeSigned quantizes real-valued weights (with standard deviation std)
// to symmetric signed integers in (-(1<<(bits-1)), 1<<(bits-1)): the most
// negative code is excluded so magnitudes fit bits-1 bits, as sign-magnitude
// atomization requires.
func QuantizeSigned(x []float64, std float64, cfg Config) []int32 {
	return quantize(x, NewSigned(std, cfg))
}

// QuantizeUnsigned quantizes real-valued pre-activation values (standard
// deviation std) through ReLU and a uniform unsigned quantizer to
// [0, 1<<bits).
func QuantizeUnsigned(x []float64, std float64, cfg Config) []int32 {
	return quantize(x, NewUnsigned(std, cfg))
}

func quantize(x []float64, q Quantizer) []int32 {
	out := make([]int32, len(x))
	for i, v := range x {
		out[i] = q.Code(v)
	}
	return out
}

// PruneToDensity zeroes the smallest-magnitude values of data in place until
// at most ceil(density*len) non-zeros remain (magnitude pruning). Values
// already zero count toward the pruned set. It returns the achieved density,
// 0 for empty data.
func PruneToDensity(data []int32, density float64) float64 {
	hist := MagnitudeHist(data, nil)
	t, surplus := PruneHist(hist, density)
	PruneAt(data, t, surplus)
	if len(data) == 0 {
		return 0
	}
	return float64(len(data)-hist[0]) / float64(len(data))
}

// PruneAt applies a threshold from PruneHist to the values it counted, in
// place: magnitudes below t become zero, and so does every value of
// magnitude t after the first surplus of them in index order.
func PruneAt(data []int32, t, surplus int) {
	PruneCut(data, t, TieCut(data, t, surplus))
}

// PruneCut is PruneAt with the tie cut already found (TieCut): magnitudes
// below t become zero, and so do those of magnitude t from index cut on.
// t == 0 prunes nothing.
func PruneCut(data []int32, t, cut int) {
	if t == 0 {
		return
	}
	zeroBelow(data[:cut], t)
	zeroBelow(data[cut:], t+1)
}

// zeroBelow zeroes every value of data whose magnitude is below t.
func zeroBelow(data []int32, t int) {
	for i, v := range data {
		if int(atom.Magnitude(v)) < t {
			v = 0
		}
		data[i] = v // unconditional, so the select compiles without a branch
	}
}

// MagnitudeHist returns the magnitude histogram of data: hist[m] counts the
// values with |v| == m, and len(hist) is one more than the largest magnitude
// (at least 1). It reuses buf's storage.
func MagnitudeHist(data []int32, buf []int) []int {
	hist := append(buf[:0], 0)
	for _, v := range data {
		m := int(atom.Magnitude(v))
		if m >= len(hist) {
			hist = append(hist, make([]int, m+1-len(hist))...)
		}
		hist[m]++
	}
	return hist
}

// PruneHist is the magnitude-pruning rule on a magnitude histogram (hist[m]
// counts the values with |v| == m; hist must not be empty). Of its
// n = sum(hist) values at most keep = ceil(density*n) may stay non-zero:
// every value above the smallest threshold t for which that holds survives,
// and so do the first surplus values of magnitude exactly t in index order;
// the rest become zero (PruneAt). PruneHist rewrites hist into the histogram
// of the pruned values and returns t and surplus. t == 0 means nothing is
// pruned.
func PruneHist(hist []int, density float64) (t, surplus int) {
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("quant: invalid target density %v", density))
	}
	n := 0
	for _, c := range hist {
		n += c
	}
	keep := int(math.Ceil(density * float64(n)))
	remain := n - hist[0] // values above magnitude t
	for remain > keep {
		t++
		remain -= hist[t]
	}
	if t == 0 {
		return 0, 0
	}
	surplus = keep - remain
	clear(hist[1:t])
	hist[t] = surplus
	hist[0] = n - keep
	return t, surplus
}

// TieCut returns the index just past the surplus-th value of magnitude t in
// data: the values of magnitude t before it survive pruning, those from it
// on do not. It is 0 when surplus is, and len(data) when data holds fewer
// than surplus such values. data holds codes, or magnitudes in bytes.
func TieCut[V int32 | uint8](data []V, t, surplus int) int {
	if surplus == 0 {
		return 0
	}
	for i, v := range data {
		tie := 0
		if m := int(v); m == t || m == -t { // |v| == t, as t >= 0
			tie = 1
		}
		if surplus -= tie; surplus == 0 {
			return i + 1
		}
	}
	return len(data)
}

// Stats summarizes the sparsity structure of a quantized operand at a given
// atom granularity.
type Stats struct {
	Len          int     // total values
	NonZero      int     // non-zero values
	ValueDensity float64 // αv or βv
	AtomDensity  float64 // αa or βa (among atoms of non-zero values)
	NonZeroAtoms int     // compressed stream length
	DenseAtoms   int     // stream length with sparsity disabled
}

// Measure computes Stats over data at the given bit-width and atom size.
func Measure(data []int32, bits int, n atom.Granularity) Stats {
	var s Stats
	for _, v := range data {
		s.add(v, 1, bits, n)
	}
	return s.finish(bits, n)
}

// MeasureHist computes the Stats of the values a magnitude histogram counts
// (hist[m] values of magnitude m): Measure's result, one bucket at a time.
func MeasureHist(hist []int, bits int, n atom.Granularity) Stats {
	var s Stats
	for m, c := range hist {
		s.add(int32(m), c, bits, n)
	}
	return s.finish(bits, n)
}

// add counts count values equal to v (or to -v).
func (s *Stats) add(v int32, count, bits int, n atom.Granularity) {
	s.Len += count
	if v != 0 && count > 0 {
		s.NonZero += count
		s.NonZeroAtoms += count * atom.CountNonZero(v, bits, n)
	}
}

// finish derives the dense stream length and the densities from the counts.
func (s Stats) finish(bits int, n atom.Granularity) Stats {
	s.DenseAtoms = s.Len * n.Count(bits)
	if s.Len > 0 {
		s.ValueDensity = float64(s.NonZero) / float64(s.Len)
	}
	if s.NonZero > 0 {
		s.AtomDensity = float64(s.NonZeroAtoms) / float64(s.NonZero*n.Count(bits))
	}
	return s
}

// Sparsity returns 1 - ValueDensity, the fraction the paper's Figure 1 plots.
func (s Stats) Sparsity() float64 { return 1 - s.ValueDensity }
