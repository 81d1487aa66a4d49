// Package workload generates the synthetic operands that stand in for the
// paper's quantized/pruned ImageNet models (see DESIGN.md, substitution
// table). Two modes are provided:
//
//   - Statistical mode: weights are clipped Gaussians and activations are
//     rectified Gaussians, pushed through the uniform quantizer of
//     internal/quant and magnitude-pruned to per-network target densities
//     that follow the paper's Figure 1 trend plus the additional pruning of
//     Section V-A2. This drives the full-network benchmarks.
//
//   - Exact mode: tensors with precisely controlled value-level and
//     atom-level density, used where the paper sweeps sparsity directly
//     (Figures 4, 15, 18).
//
// All generation is deterministic given a seed.
package workload

import (
	"math/rand"

	"ristretto/internal/atom"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/tensor"
)

// Targets holds the value-level density targets (fraction non-zero) for a
// layer's weights and activations after quantization and pruning.
type Targets struct {
	WDensity float64 // βv
	ADensity float64 // αv
}

// EvalTargets returns the per-network value-density targets used in the
// full-network evaluation. The trend follows Figure 1 (sparsity grows as
// precision shrinks) plus the paper's additional lossless pruning; a small
// deterministic per-network offset models cross-network variation.
func EvalTargets(netName string, wbits, abits int) Targets {
	var w, a float64
	switch {
	case wbits <= 2:
		w = 0.36
	case wbits <= 4:
		w = 0.42
	default:
		w = 0.48
	}
	switch {
	case abits <= 2:
		a = 0.25
	case abits <= 4:
		a = 0.35
	default:
		a = 0.45
	}
	// ±0.04 deterministic per-network jitter.
	h := model.Hash(netName)
	w += (float64(h%9) - 4) / 100
	a += (float64((h>>8)%9) - 4) / 100
	return Targets{WDensity: clamp01(w), ADensity: clamp01(a)}
}

func clamp01(x float64) float64 {
	if x < 0.02 {
		return 0.02
	}
	if x > 1 {
		return 1
	}
	return x
}

// DeriveSeed derives an independent stream seed from a base seed and a list
// of labels (network name, precision, figure ID, …) by folding each label's
// digest (model.Hash) into a splitmix64 chain. Unlike ad-hoc mixing
// expressions (e.g. seed ^ hash*bits, which multiplies entropy out of the
// low bits and correlates streams that share factors), every label
// permutes the full 64-bit state, so any two distinct label paths yield
// statistically independent generators. Every experiment derives its
// generator this way, which is what lets the harness run cells in any
// order — or in parallel — with bit-identical results.
func DeriveSeed(base int64, labels ...string) int64 {
	x := model.SplitMix(uint64(base))
	for _, l := range labels {
		x = model.SplitMix(x ^ model.Hash(l))
	}
	return int64(x)
}

// Gen is a deterministic generator of synthetic operands.
type Gen struct {
	src   *source
	rng   *rand.Rand         // reads src: the stream of rand.New(rand.NewSource(seed))
	bufs  [maxBufs + 1]draws // the synthesis pipeline's chunk buffers, and last the caller's own
	slots [2]slot            // the synthesis runs' weight scratches, reused across layers and runs
	plane []int32            // the stats path's activation-plane scratch
}

// NewGen returns a generator seeded with seed. It draws the values
// rand.New(rand.NewSource(seed)) would.
func NewGen(seed int64) *Gen {
	src := newSource(seed)
	return &Gen{src: src, rng: rand.New(src)}
}

// Normals fills xs with the generator's next len(xs) standard normals: the
// values rand.New(rand.NewSource(seed)).NormFloat64 would return, in order.
func (g *Gen) Normals(xs []float64) {
	for lo := 0; lo < len(xs); lo += chunkLen {
		g.next(min(chunkLen, len(xs)-lo)).floats(xs[lo:])
	}
}

// Walk advances the generator past its next n standard normals, as
// Normals would, without making them: the walk through the random stream
// alone, the serial part of synthesis.
func (g *Gen) Walk(n int) {
	for lo := 0; lo < n; lo += chunkLen {
		g.next(min(chunkLen, n-lo))
	}
}

// FeatureMap generates a c×h×w activation map at the given bit-width, 2 to
// 8 bits (it panics, naming the width, at any other): rectified-Gaussian
// values quantized with the default activation clip, then pruned (smallest
// magnitudes first) toward the target value density.
//
// Real feature maps have strongly uneven per-channel occupancy (some filters
// fire rarely) — the effect Ristretto's w/a load balancing exploits — so the
// per-channel density target varies deterministically around aDensity by
// ±60% while preserving the mean.
func (g *Gen) FeatureMap(c, h, w, bits int, aDensity float64) *tensor.FeatureMap {
	f := tensor.NewFeatureMap(c, h, w, bits)
	tab := actTable(bits)
	hist := make([]int, tab.q.MaxCode()+1)
	for ch := 0; ch < c; ch++ {
		plane := f.Channel(ch)
		t, surplus := drawPlane(g, plane, tab, planeDensity(aDensity, ch), hist)
		quant.PruneCut(plane, t, quant.TieCut(plane, t, surplus))
	}
	return f
}

// planeDensity is channel ch's activation density target: aDensity scaled
// by a pseudo-random per-channel factor in [0.4, 1.6], mean ≈1. The factor
// is hashed by channel index (not sequential) so that cyclic tile
// assignment does not accidentally balance it.
func planeDensity(aDensity float64, ch int) float64 {
	factor := 0.4 + 1.2*float64(model.SplitMix(uint64(ch)+0x9e37)%1024)/1023
	return clamp01(aDensity * factor)
}

// actQuantizer and weightQuantizer are the default quantizers of synthetic
// activations and weights (unit-variance sources).
func actQuantizer(bits int) quant.Quantizer {
	return quant.NewUnsigned(1, quant.Config{Bits: bits, ClipSigma: quant.DefaultActClip(bits)})
}

func weightQuantizer(bits int) quant.Quantizer {
	return quant.NewSigned(1, quant.Config{Bits: bits, ClipSigma: quant.DefaultWeightClip(bits)})
}

// Kernels generates a k×c×kh×kw kernel stack at the given bit-width, 2 to 8
// bits (it panics, naming the width, at any other): Gaussian weights
// quantized with the default weight clip, pruned to the target density as
// PruneToDensity would.
func (g *Gen) Kernels(k, c, kh, kw, bits int, wDensity float64) *tensor.KernelStack {
	ks := tensor.NewKernelStack(k, c, kh, kw, bits)
	w := g.drawWeights(ks.Data, bits, wDensity, chunkLen)
	quant.PruneCut(ks.Data, w.t, w.cut)
	return ks
}

// value draws a non-zero value whose non-zero atoms appear with probability
// atomDensity; at least one atom is non-zero. Used by the exact mode.
func (g *Gen) value(bits int, gran atom.Granularity, atomDensity float64, signed bool) int32 {
	magBits := bits
	if signed {
		magBits = bits - 1 // sign-magnitude: magnitude fits bits-1 bits
	}
	cnt := gran.Count(magBits)
	var v int32
	for v == 0 {
		for i := 0; i < cnt; i++ {
			rem := magBits - i*int(gran) // bits left for this digit
			digitMax := 1<<uint(gran) - 1
			if rem < int(gran) {
				digitMax = 1<<uint(rem) - 1
			}
			if digitMax > 0 && g.rng.Float64() < atomDensity {
				v |= int32(g.rng.Intn(digitMax)+1) << (uint(i) * uint(gran))
			}
		}
	}
	if signed && g.rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// FeatureMapExact generates a feature map where each position is non-zero
// with probability valueDensity, and each atom of a non-zero value is
// non-zero with probability ~atomDensity (at least one). This gives direct
// control of both αv and αa for the sparsity-sweep experiments.
func (g *Gen) FeatureMapExact(c, h, w, bits int, gran atom.Granularity, valueDensity, atomDensity float64) *tensor.FeatureMap {
	f := tensor.NewFeatureMap(c, h, w, bits)
	for i := range f.Data {
		if g.rng.Float64() < valueDensity {
			f.Data[i] = g.value(bits, gran, atomDensity, false)
		}
	}
	return f
}

// KernelsExact is the weight-side analogue of FeatureMapExact.
func (g *Gen) KernelsExact(k, c, kh, kw, bits int, gran atom.Granularity, valueDensity, atomDensity float64) *tensor.KernelStack {
	ks := tensor.NewKernelStack(k, c, kh, kw, bits)
	for i := range ks.Data {
		if g.rng.Float64() < valueDensity {
			ks.Data[i] = g.value(bits, gran, atomDensity, true)
		}
	}
	return ks
}

// SparseVector generates an n-long vector of uniformly distributed bit-width
// values where each position is non-zero with probability density — the
// randomly generated sparse vectors of the paper's Figure 4 study.
func (g *Gen) SparseVector(n, bits int, density float64, signed bool) []int32 {
	v := make([]int32, n)
	for i := range v {
		if g.rng.Float64() >= density {
			continue
		}
		if signed {
			lim := 1<<(bits-1) - 1
			x := int32(g.rng.Intn(2*lim+1) - lim)
			if x == 0 {
				x = 1
			}
			v[i] = x
		} else {
			v[i] = int32(g.rng.Intn(1<<bits-1) + 1)
		}
	}
	return v
}

// LayerOperands generates the full activation and weight tensors of a layer
// at the given precisions, 2 to 8 bits each, and targets; it panics as
// FeatureMap and Kernels do at any other width.
func (g *Gen) LayerOperands(l model.Layer, wbits, abits int, t Targets) (*tensor.FeatureMap, *tensor.KernelStack) {
	f := g.FeatureMap(l.C, l.H, l.W, abits, t.ADensity)
	k := g.Kernels(l.K, l.C, l.KH, l.KW, wbits, t.WDensity)
	return f, k
}
