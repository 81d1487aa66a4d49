// Package core implements condensed streaming computation (CSC), the paper's
// primary contribution (Section III): a unified dataflow in which high-level
// sparse convolution and low-level mixed-precision multiplication are both
// expressed as the outer product of compact non-zero atom streams.
//
// The pipeline has three phases:
//
//  1. Flattening — feature-map tiles and kernels are reshaped into 1-D value
//     streams in zigzag order, each element carrying its spatial coordinates
//     and channel index as metadata.
//  2. Compression — zero values and zero atoms are squeezed out, producing
//     compact atom streams whose elements carry shift offsets, sign bits and
//     last-atom flags.
//  3. Intersection — a 1-D convolution between the static weight atom stream
//     and the sliding activation atom stream; partial products are aligned by
//     the activation shift immediately and by the weight-slice shift at
//     aggregation time (decoupled shift, Section IV-C2).
//
// The functional implementation here is bit-exact against the dense reference
// convolution; the cycle-accurate microarchitecture lives in
// internal/ristretto and reuses these streams.
package core

import (
	"math/bits"
	"slices"

	"ristretto/internal/atom"
	"ristretto/internal/sparse"
	"ristretto/internal/tensor"
)

// ActElem is one non-zero activation value in a flattened tile stream, with
// its tile-relative coordinates.
type ActElem struct {
	Val  int32
	X, Y uint8
}

// WeightElem is one non-zero weight in a flattened kernel stream: kernel-
// window coordinates plus the output channel it contributes to. The input
// channel is implicit (streams are built per input channel).
type WeightElem struct {
	Val  int32
	X, Y uint8
	K    uint16
}

// ActAtom is one non-zero atom of an activation, as produced by the Atomizer:
// the 2-bit (or 1/3-bit) digit, its shift offset, the last-atom flag, and the
// owning activation's coordinates. Activation atoms are unsigned (ReLU).
type ActAtom struct {
	Mag   uint8
	Shift uint8
	Last  bool
	X, Y  uint8
}

// WeightAtom is one non-zero atom of a weight in the static stream: digit,
// shift offset (its slice), sign, the kernel-window coordinates and output
// channel of the owning weight.
type WeightAtom struct {
	Mag   uint8
	Shift uint8
	Sign  bool
	X, Y  uint8
	K     uint16
}

// FlattenTile extracts the non-zero activations of channel c within tile tl
// in zigzag (row-major) order — phase 1 for feature maps. Coordinates are
// tile-relative, as in the block COO-2D format.
func FlattenTile(f *tensor.FeatureMap, c int, tl tensor.Tile) []ActElem {
	return flattenTile(f, c, tl, false)
}

// FlattenTileDense keeps zero values too — the Ristretto-ns configuration,
// which disables sparsity entirely to isolate its contribution (Section V-B).
func FlattenTileDense(f *tensor.FeatureMap, c int, tl tensor.Tile) []ActElem {
	return flattenTile(f, c, tl, true)
}

func flattenTile(f *tensor.FeatureMap, c int, tl tensor.Tile, dense bool) []ActElem {
	var out []ActElem
	for y := 0; y < tl.H; y++ {
		for x := 0; x < tl.W; x++ {
			if v := f.At(c, tl.Y0+y, tl.X0+x); v != 0 || dense {
				out = append(out, ActElem{Val: v, X: uint8(x), Y: uint8(y)})
			}
		}
	}
	return out
}

// FlattenKernels extracts the non-zero weights of input channel c across the
// given output channels (nil = all), ordered output-channel-first — phase 1
// for kernels. In Ristretto this happens offline.
func FlattenKernels(w *tensor.KernelStack, c int, outChans []int) []WeightElem {
	return flattenKernels(w, c, outChans, false)
}

// FlattenKernelsDense keeps zero weights too (Ristretto-ns).
func FlattenKernelsDense(w *tensor.KernelStack, c int, outChans []int) []WeightElem {
	return flattenKernels(w, c, outChans, true)
}

func flattenKernels(w *tensor.KernelStack, c int, outChans []int, dense bool) []WeightElem {
	n := len(outChans)
	if outChans == nil {
		n = w.K
	}
	var out []WeightElem
	for i := 0; i < n; i++ {
		k := i
		if outChans != nil {
			k = outChans[i]
		}
		for y := 0; y < w.KH; y++ {
			for x := 0; x < w.KW; x++ {
				if v := w.At(k, c, y, x); v != 0 || dense {
					out = append(out, WeightElem{Val: v, X: uint8(x), Y: uint8(y), K: uint16(k)})
				}
			}
		}
	}
	return out
}

// CompressActs decomposes a flattened activation stream into its non-zero
// atom stream — phase 2, performed on the fly by the Atomizer in hardware.
// With dense set, zero atoms of non-zero values are kept (Ristretto-ns).
func CompressActs(elems []ActElem, bits int, n atom.Granularity, dense bool) []ActAtom {
	if dense {
		var out []ActAtom
		for _, e := range elems {
			for _, a := range atom.DecomposeDense(e.Val, bits, n) {
				out = append(out, ActAtom{Mag: a.Mag, Shift: a.Shift, Last: a.Last, X: e.X, Y: e.Y})
			}
		}
		return out
	}
	n.Validate()
	total := 0
	for _, e := range elems {
		total += atom.DigitCount(absMag(e.Val), n)
	}
	out := make([]ActAtom, 0, total)
	for _, e := range elems {
		out = appendActAtoms(out, e.Val, bits, n, e.X, e.Y)
	}
	return out
}

func absMag(v int32) uint32 {
	if v < 0 {
		return uint32(-v)
	}
	return uint32(v)
}

// appendActAtoms appends the non-zero atoms of one activation value through
// the precomputed digit tables (generic fallback above 8-bit magnitudes).
// Activation atoms are unsigned: a negative value contributes its magnitude
// atoms, matching the pre-table behavior of dropping the sign bit.
func appendActAtoms(dst []ActAtom, v int32, bits int, n atom.Granularity, x, y uint8) []ActAtom {
	mag := absMag(v)
	if mag < 256 && bits > 0 && (bits >= 8 || mag < 1<<uint(bits)) {
		for _, a := range atom.Digits(mag, n) {
			dst = append(dst, ActAtom{Mag: a.Mag, Shift: a.Shift, Last: a.Last, X: x, Y: y})
		}
		return dst
	}
	for _, a := range atom.Decompose(v, bits, n) {
		dst = append(dst, ActAtom{Mag: a.Mag, Shift: a.Shift, Last: a.Last, X: x, Y: y})
	}
	return dst
}

// CompressWeights decomposes a flattened weight stream into its non-zero atom
// stream with the stream shuffle of Figure 9 applied: atoms are grouped by
// slice (identical shift offset) so the weight shift can be decoupled into
// the accumulate-buffer drain, and within a slice they are ordered output-
// channel-first so concurrent products target distinct accumulate banks.
// Magnitudes use bits-1 bits (sign-magnitude).
//
// elems must hold each output channel's weights together, as FlattenKernels
// and FlattenKernelsDense list them; a slice's channels keep the order of
// their groups.
func CompressWeights(elems []WeightElem, bits int, n atom.Granularity, dense bool) []WeightAtom {
	groups := 0
	for i, e := range elems {
		if i == 0 || e.K != elems[i-1].K {
			groups++
		}
	}
	var b WeightStreamer
	b.start(bits, n, dense, len(elems), groups)
	for i, e := range elems {
		if i > 0 && e.K != elems[i-1].K {
			b.endChannel()
		}
		b.add(e.Val, e.X, e.Y, e.K)
	}
	return b.finish(nil)
}

// WeightStreamer builds static weight streams, reusing its temporaries
// from call to call: a sweep over a layer's input channels then allocates
// only the streams it returns, or nothing when it appends them to a
// reused buffer. The zero value is ready to use; a streamer is not safe for
// concurrent use.
//
// A stream is built in one pass over its weights, channel by channel. Each
// weight's atoms go straight to the regions of their slices, so every
// slice lists its atoms in weight order, and so channel by channel: the
// slice needs no regrouping. The channel-first interleave then reads the
// slice's channel runs round-robin.
type WeightStreamer struct {
	magBits int
	gran    atom.Granularity
	dense   bool

	atoms  []WeightAtom // slice s's atoms at [s*stride, s*stride+fill[s]); a weight adds at most one atom per slice
	stride int          // the weights the stream may hold
	fill   []int32      // atoms per slice
	mark   []int32      // fill at the current channel's first weight
	runs   [][]chanRun  // per slice: its channels' runs of atoms, in channel order
}

// chanRun is one channel's atoms within a slice's region of
// WeightStreamer.atoms.
type chanRun struct{ start, n int32 }

// AppendStream appends input channel c's compressed static stream over
// every output channel to dst and returns the extended slice. The stream is
// byte-identical to CompressWeights(FlattenKernels(w, c, nil), w.Bits, n,
// false), or to the FlattenKernelsDense pair when dense is set; it is built
// from the kernel's (k, c) blocks directly.
func (b *WeightStreamer) AppendStream(dst []WeightAtom, w *tensor.KernelStack, c int, n atom.Granularity, dense bool) []WeightAtom {
	area := w.KH * w.KW
	b.start(w.Bits, n, dense, w.K*area, w.K)
	for k := 0; k < w.K; k++ {
		block := w.Data[(k*w.C+c)*area:][:area]
		for y := 0; y < w.KH; y++ {
			for x, v := range block[y*w.KW : (y+1)*w.KW] {
				if v != 0 || dense {
					b.add(v, uint8(x), uint8(y), uint16(k))
				}
			}
		}
		b.endChannel()
	}
	return b.finish(dst)
}

// resized returns v resliced to n elements, reallocating only when it is
// short; the contents are unspecified.
func resized[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// start empties the streamer for a stream of up to weights weights of the
// given bit width over up to channels channel groups.
func (b *WeightStreamer) start(bits int, n atom.Granularity, dense bool, weights, channels int) {
	n.Validate()
	b.magBits, b.gran, b.dense = bits-1, n, dense
	slices := n.Count(bits - 1)
	b.stride = weights
	b.atoms = resized(b.atoms, slices*weights)
	b.fill = resized(b.fill, slices)
	clear(b.fill)
	b.mark = resized(b.mark, slices)
	clear(b.mark)
	if len(b.runs) < slices {
		b.runs = append(b.runs, make([][]chanRun, slices-len(b.runs))...)
	}
	b.runs = b.runs[:slices]
	for s := range b.runs {
		if cap(b.runs[s]) < channels {
			b.runs[s] = make([]chanRun, 0, channels)
		}
		b.runs[s] = b.runs[s][:0]
	}
}

// add appends the atoms of weight v at kernel position (x, y) of output
// channel k to their slices. Sign is sign-magnitude: every atom of a value
// shares it.
func (b *WeightStreamer) add(v int32, x, y uint8, k uint16) {
	sign := v < 0
	for _, a := range b.digits(v) {
		s := int(a.Shift) / int(b.gran)
		b.atoms[s*b.stride+int(b.fill[s])] = WeightAtom{Mag: a.Mag, Shift: a.Shift, Sign: sign, X: x, Y: y, K: k}
		b.fill[s]++
	}
}

// digits returns the atoms of one weight: the table fast path for <8-bit
// magnitudes in sparse mode, atom.Decompose/DecomposeDense otherwise. The
// table's slices are shared and read-only.
func (b *WeightStreamer) digits(v int32) []atom.Atom {
	if b.dense {
		return atom.DecomposeDense(v, b.magBits, b.gran)
	}
	if mag := absMag(v); mag < 256 && b.magBits > 0 && (b.magBits >= 8 || mag < 1<<uint(b.magBits)) {
		return atom.Digits(mag, b.gran)
	}
	return atom.Decompose(v, b.magBits, b.gran)
}

// endChannel closes the current channel: each slice it added atoms to
// gains a run.
func (b *WeightStreamer) endChannel() {
	for s, f := range b.fill {
		if m := b.mark[s]; f > m {
			b.runs[s] = append(b.runs[s], chanRun{start: m, n: f - m})
			b.mark[s] = f
		}
	}
}

// finish closes the last channel and appends the stream to out: slice by
// slice, round-robin over the slice's channel runs, so that adjacent
// stream slots target distinct accumulate banks (the Figure 9 stream
// shuffle).
func (b *WeightStreamer) finish(out []WeightAtom) []WeightAtom {
	b.endChannel()
	total := 0
	for _, f := range b.fill {
		total += int(f)
	}
	if total == 0 {
		return out
	}
	out = slices.Grow(out, total)
	for s, runs := range b.runs {
		seg := b.atoms[s*b.stride:]
		for len(runs) > 0 {
			live := runs[:0]
			for _, r := range runs {
				out = append(out, seg[r.start])
				if r.start, r.n = r.start+1, r.n-1; r.n > 0 {
					live = append(live, r)
				}
			}
			runs = live
		}
	}
	return out
}

// StreamTileActs builds the compressed activation atom stream of channel c
// within tile tl directly from the feature map — the fused equivalent of
// CompressActs(FlattenTile(f, c, tl), f.Bits, n, false), byte-identical in
// output but without the intermediate element slice. Zero values are skipped
// 64 lanes at a time: each tile row is reduced to bitmap words
// (sparse.AppendMaskWords) and only set bits are visited via trailing-zero
// iteration, so the per-element branch of the flatten phase disappears on
// sparse data. Atomization goes through the precomputed digit tables.
func StreamTileActs(f *tensor.FeatureMap, c int, tl tensor.Tile, n atom.Granularity) []ActAtom {
	return AppendTileActs(nil, f, c, tl, n)
}

// AppendTileActs appends the stream StreamTileActs builds to dst and
// returns the extended slice.
func AppendTileActs(dst []ActAtom, f *tensor.FeatureMap, c int, tl tensor.Tile, n atom.Granularity) []ActAtom {
	n.Validate()
	var words [4]uint64 // tiles are ≤256 wide (8-bit block-COO coordinates)
	masks := words[:0]
	chanBase := c * f.H * f.W

	// Pass 1: exact atom count, bitmap-driven.
	total := 0
	for y := 0; y < tl.H; y++ {
		row := f.Data[chanBase+(tl.Y0+y)*f.W+tl.X0:]
		row = row[:tl.W]
		masks = sparse.AppendMaskWords(masks[:0], row)
		for wi, word := range masks {
			for word != 0 {
				x := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				total += atom.DigitCount(absMag(row[x]), n)
			}
		}
	}

	// Pass 2: fill.
	out := slices.Grow(dst, total)
	for y := 0; y < tl.H; y++ {
		row := f.Data[chanBase+(tl.Y0+y)*f.W+tl.X0:]
		row = row[:tl.W]
		masks = sparse.AppendMaskWords(masks[:0], row)
		for wi, word := range masks {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				x := wi*64 + b
				out = appendActAtoms(out, row[x], f.Bits, n, uint8(x), uint8(y))
			}
		}
	}
	return out
}

// Steps returns the exact number of intersection steps for streams of t
// activation atoms against S weight atoms on N multipliers — the paper's
// Eq. (3) with the ε of Eq. (4): the static stream is split into ceil(S/N)
// rounds, the activation stream replays once per round, and the ping-pong
// weight registers overlap all round transitions except the final drain.
func Steps(t, S, N int) int {
	if t <= 0 || S <= 0 || N <= 0 {
		// N <= 0 means no multipliers: no steps can execute. Guarded rather
		// than assumed away so a zero-multiplier DSE point or CLI flag reports
		// zero work instead of panicking with a divide by zero.
		return 0
	}
	rounds := (S + N - 1) / N
	eps := S % N
	if eps == 0 {
		eps = N
	}
	eps--
	return t*rounds + eps
}
