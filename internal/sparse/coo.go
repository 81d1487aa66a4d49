// Package sparse implements the compressed tensor formats used by the
// accelerators in this study: the block COO-2D format Ristretto uses for
// feature-map tiles and kernels (Figure 8), the bitmap format SparTen uses for
// chunked vectors, and CSR as a conventional reference.
//
// Besides encode/decode, every format reports its encoded size in bits
// (payload plus metadata), which drives the buffer/DRAM traffic accounting in
// the energy models.
package sparse

import (
	"fmt"

	"ristretto/internal/tensor"
)

// COOEntry is one non-zero value with its spatial offset within a tile.
// The coordinate is the offset from the tile origin (block COO-2D), so tiles
// up to 256×256 need only one byte per axis.
type COOEntry struct {
	X, Y uint8
	Val  int32
}

// TileCOO is a block COO-2D encoding of one channel plane of one tile:
// a compact list of non-zero values in zigzag (row-major) order plus the tile
// geometry needed to reconstruct absolute coordinates.
type TileCOO struct {
	Tile    tensor.Tile
	Channel int
	Bits    int // value bit-width
	Entries []COOEntry
}

// EncodeTile extracts the non-zero activations of channel c within tile tl of
// f, in row-major (zigzag-flattened) order.
func EncodeTile(f *tensor.FeatureMap, c int, tl tensor.Tile) *TileCOO {
	if tl.W > 256 || tl.H > 256 {
		panic(fmt.Sprintf("sparse: tile %v exceeds COO-2D 8-bit coordinate range", tl))
	}
	t := &TileCOO{Tile: tl, Channel: c, Bits: f.Bits}
	for y := 0; y < tl.H; y++ {
		for x := 0; x < tl.W; x++ {
			v := f.At(c, tl.Y0+y, tl.X0+x)
			if v != 0 {
				t.Entries = append(t.Entries, COOEntry{X: uint8(x), Y: uint8(y), Val: v})
			}
		}
	}
	return t
}

// Decode scatters the entries back into dst (which must contain the tile).
// Positions not covered by an entry are left untouched, so dst should be
// zeroed over the tile first; DecodeInto handles that.
func (t *TileCOO) Decode(dst *tensor.FeatureMap) {
	for _, e := range t.Entries {
		dst.Set(t.Channel, t.Tile.Y0+int(e.Y), t.Tile.X0+int(e.X), e.Val)
	}
}

// DecodeInto zeroes the tile region of dst and scatters the entries.
func (t *TileCOO) DecodeInto(dst *tensor.FeatureMap) {
	for y := 0; y < t.Tile.H; y++ {
		for x := 0; x < t.Tile.W; x++ {
			dst.Set(t.Channel, t.Tile.Y0+y, t.Tile.X0+x, 0)
		}
	}
	t.Decode(dst)
}

// NNZ returns the number of encoded non-zero values.
func (t *TileCOO) NNZ() int { return len(t.Entries) }

// SizeBits returns the encoded size: per entry, the value payload plus two
// block-relative coordinates sized to the tile (4+4 bits for tiles up to
// 16×16), plus a 16-bit entry-count header.
func (t *TileCOO) SizeBits() int {
	return 16 + len(t.Entries)*(t.Bits+coordBits(t.Tile.W)+coordBits(t.Tile.H))
}

// coordBits returns the bits needed to address n positions.
func coordBits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
