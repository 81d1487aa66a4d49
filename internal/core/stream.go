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
	"fmt"
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
// Magnitudes use bits-1 bits (sign-magnitude); streams are at most 16 bits
// wide.
//
// elems must hold each output channel's weights together, each at its own
// kernel-window position, as FlattenKernels and FlattenKernelsDense list
// them; a slice's channels keep the order of their groups, and a channel's
// atoms within a slice follow the window row by row. A dense stream's elems
// must list every window position of every channel, as FlattenKernelsDense
// does.
func CompressWeights(elems []WeightElem, bits int, n atom.Granularity, dense bool) []WeightAtom {
	if len(elems) == 0 {
		return nil
	}
	groups, kw, kh := 0, 0, 0
	for i, e := range elems {
		if i == 0 || e.K != elems[i-1].K {
			groups++
		}
		kw, kh = max(kw, int(e.X)+1), max(kh, int(e.Y)+1)
	}
	var b WeightStreamer
	b.start(bits, n, groups, kw, kh)
	area := kw * kh
	if dense && len(elems) != groups*area {
		panic(fmt.Sprintf("core: a dense weight stream lists %d of its %d channels' %d window positions", len(elems), groups, area))
	}
	clear(b.weights)
	var or uint32
	g := -1
	for i, e := range elems {
		if i == 0 || e.K != elems[i-1].K {
			g++
		}
		p := int(e.Y)*kw + int(e.X)
		mag := atom.Magnitude(e.Val)
		or |= mag
		b.weights[g*area+p] = pack(mag, e.Val, b.xy[p], e.K)
	}
	b.checkRange(or, dense)
	b.mark(dense)
	return b.emit(nil)
}

// WeightStreamer builds static weight streams, reusing its temporaries
// from call to call: a sweep over a layer's input channels then allocates
// only the streams it returns, or nothing when it appends them to a
// reused buffer. The zero value is ready to use; a streamer is not safe for
// concurrent use.
//
// A stream is built from masks: for each (output channel, weight slice),
// one bit per kernel-window position, set where the weight's digit in the
// slice is non-zero (every position of a dense stream), in as many 64-bit
// words as the window needs. Their popcounts size the stream, and each
// slice's atoms are then written straight into their places in round
// order.
type WeightStreamer struct {
	magBits int
	gran    atom.Granularity
	slices  int // magnitude digits, one per slice

	chans   int      // the stream's channel groups
	words   int      // mask words per (group, slice)
	masks   []uint64 // [(s*chans+g)*words:][:words]: group g's positions with a non-zero digit in slice s
	weights []uint64 // [g*kw*kh+p]: group g's weight at window position p, packed
	kw, kh  int      // the window xy indexes
	xy      []uint64 // window position p's coordinates, in their packed bits
	live    []cursor // emit's channels with atoms left in the slice
}

// A packed weight holds what its atoms share: its magnitude in bits 0-15,
// its window coordinates x and y in bits 16-23 and 24-31, its sign in bit
// 32 and its output channel in bits 40-55. Streams are at most 16 bits
// wide, so magnitudes take at most 15 bits and no slice's digit reaches
// bit 16.
const packedSign = 1 << 32

// pack packs the weight v of magnitude mag at window coordinates xy
// (already in their packed bits) of output channel k.
func pack(mag uint32, v int32, xy uint64, k uint16) uint64 {
	return uint64(mag) | xy | uint64(uint32(v)>>31)<<32 | uint64(k)<<40
}

// cursor is a channel with atoms left in the slice emit is writing: the
// bits left of its current mask word, the index in weights of that word's
// first position, the atoms it has left in the slice and the index of the
// word among the slice's mask words.
type cursor struct {
	word     uint64
	base     int
	left, at int32
}

// AppendStream appends input channel c's compressed static stream over
// every output channel to dst and returns the extended slice. The stream is
// byte-identical to CompressWeights(FlattenKernels(w, c, nil), w.Bits, n,
// false), or to the FlattenKernelsDense pair when dense is set; it is built
// from the kernel's (k, c) blocks directly. Kernels wider than 16 bits
// panic.
func (b *WeightStreamer) AppendStream(dst []WeightAtom, w *tensor.KernelStack, c int, n atom.Granularity, dense bool) []WeightAtom {
	area := w.KH * w.KW
	b.start(w.Bits, n, w.K, w.KW, w.KH)
	xy := b.xy[:area]
	var or uint32
	for k := range w.K {
		block := b.weights[k*area:][:area]
		for p, v := range w.Data[(k*w.C+c)*area:][:area] {
			mag := atom.Magnitude(v)
			or |= mag
			block[p] = pack(mag, v, xy[p], uint16(k))
		}
	}
	b.checkRange(or, dense)
	b.mark(dense)
	return b.emit(dst)
}

// resized returns v resliced to n elements, reallocating only when it is
// short; the contents are unspecified.
func resized[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// start empties the streamer for a stream of the given bit width over
// chans channel groups of kw×kh windows; the caller fills weights. A
// stream wider than 16 bits panics: its top slices' digits would reach a
// packed weight's coordinate bits.
func (b *WeightStreamer) start(bits int, n atom.Granularity, chans, kw, kh int) {
	n.Validate()
	if bits > 16 {
		panic(fmt.Sprintf("core: a %d-bit weight stream is wider than 16 bits", bits))
	}
	b.magBits, b.gran = bits-1, n
	b.slices = n.Count(bits - 1)
	b.chans, b.words = chans, (kw*kh+63)/64
	b.masks = resized(b.masks, b.slices*chans*b.words)
	b.weights = resized(b.weights, chans*kw*kh)
	b.live = resized(b.live, chans)
	if kw != b.kw || kh != b.kh {
		b.kw, b.kh = kw, kh
		b.xy = resized(b.xy, kw*kh)
		for p := range b.xy {
			b.xy[p] = uint64(p%kw)<<16 | uint64(p/kw)<<24
		}
	}
}

// checkRange panics unless every weight of the stream, whose magnitudes
// OR to or, fits in its magnitude bits (the range contract of
// atom.Decompose, which a dense stream holds every weight to).
func (b *WeightStreamer) checkRange(or uint32, dense bool) {
	if b.magBits < 1 && (or != 0 || dense) || b.magBits >= 1 && or>>uint(b.magBits) != 0 {
		panic(fmt.Sprintf("core: a %d-bit weight stream holds a magnitude beyond %d bits", b.magBits+1, max(b.magBits, 0)))
	}
}

// mark sets every (group, slice) mask: the positions whose digit in the
// slice is non-zero, read from the packed weights, or every window
// position when dense is set.
func (b *WeightStreamer) mark(dense bool) {
	area := b.kw * b.kh
	if dense {
		for i := range b.masks {
			b.masks[i] = ^uint64(0)
		}
		// Each mask's last word covers only the window's last positions.
		for i := b.words - 1; i < len(b.masks); i += b.words {
			b.masks[i] = ^uint64(0) >> (uint(-area) & 63)
		}
		return
	}
	gm := uint64(1)<<b.gran - 1
	for s := range b.slices {
		// dm picks the slice's digit out of a packed weight.
		dm := gm << (uint(s) * uint(b.gran))
		masks := b.masks[s*b.chans*b.words:][:b.chans*b.words]
		for g := range b.chans {
			block := b.weights[g*area:][:area]
			for wi := range b.words {
				masks[g*b.words+wi] = digitMask(block[wi*64:min(area, wi*64+64)], dm)
			}
		}
	}
}

// digitMask returns the mask of the packed weights (at most 64) that have
// a bit of dm set.
func digitMask(weights []uint64, dm uint64) uint64 {
	var word uint64
	for p := len(weights) - 1; p >= 0; p-- {
		var bit uint64
		if weights[p]&dm != 0 {
			bit = 1
		}
		word = word<<1 | bit
	}
	return word
}

// emit appends the stream the masks describe to dst and returns the
// extended slice: slice by slice, and within a slice round by round, each
// round taking the next atom (lowest window position first) of every
// channel with atoms left, in channel order, so that adjacent stream slots
// target distinct accumulate banks (the Figure 9 stream shuffle). Each atom
// is stored field by field in its place.
func (b *WeightStreamer) emit(dst []WeightAtom) []WeightAtom {
	total := 0
	for _, m := range b.masks {
		total += bits.OnesCount64(m)
	}
	if total == 0 {
		return dst
	}
	out := slices.Grow(dst, total)[:len(dst)+total]
	i, words, area := len(dst), b.words, b.kw*b.kh
	gm := uint64(1)<<b.gran - 1
	for s := range b.slices {
		masks := b.masks[s*b.chans*words:][:b.chans*words]
		live, n := b.live[:b.chans], 0
		for g := range b.chans {
			m := masks[g*words:][:words]
			c := cursor{word: m[0], base: g * area, at: int32(g * words)}
			for _, w := range m {
				c.left += int32(bits.OnesCount64(w))
			}
			// Only channels with atoms in the slice are kept, without a
			// branch.
			live[n] = c
			n += int(uint32(-c.left) >> 31)
		}
		live = live[:n]
		for len(live) > 0 {
			// A round writes the next atom of every live channel.
			n := len(live)
			live = round(out[i:][:n], live, b.weights, masks, gm, uint(s)*uint(b.gran))
			i += n
		}
	}
	return out
}

// round writes the next atom of every channel of live into dst, which is
// as long as live, and returns the channels that have atoms left, in
// order, in live's storage. The atoms belong to the slice of the given
// digit mask and shift, whose mask words are masks.
func round(dst []WeightAtom, live []cursor, weights, masks []uint64, gm uint64, shift uint) []cursor {
	dst = dst[:len(live)]
	n := 0
	for j := range live {
		c := live[j]
		for c.word == 0 {
			// The channel's current word is empty, but a later one holds
			// atoms.
			c.at++
			c.base += 64
			c.word = masks[c.at]
		}
		w := weights[c.base+bits.TrailingZeros64(c.word)]
		c.word &= c.word - 1
		c.left--
		a := &dst[j]
		a.Mag = uint8(w >> (shift & 63) & gm)
		a.Shift = uint8(shift)
		a.Sign = w&packedSign != 0
		a.X, a.Y = uint8(w>>16), uint8(w>>24)
		a.K = uint16(w >> 40)
		// The channel stays live while it has atoms left: written either
		// way, kept without a branch.
		live[n] = c
		n += int(uint32(-c.left) >> 31)
	}
	return live[:n]
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
