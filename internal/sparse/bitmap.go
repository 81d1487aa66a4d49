package sparse

import (
	"fmt"
	"math/bits"
)

// BitmapVec is SparTen's compression format: a dense bitmask recording which
// positions of a logical vector are non-zero, plus the packed non-zero values
// in order. SparTen's inner-join ANDs two bitmasks and uses priority encoding
// plus prefix sums over them to extract matched weight/activation pairs.
type BitmapVec struct {
	N    int      // logical vector length
	Bits int      // value bit-width
	Mask []uint64 // ceil(N/64) words, bit i set iff position i is non-zero
	Vals []int32  // packed non-zero values, ascending position order
}

// EncodeBitmap compresses v into bitmap form.
func EncodeBitmap(v []int32, bits int) *BitmapVec {
	b := &BitmapVec{N: len(v), Bits: bits, Mask: make([]uint64, (len(v)+63)/64)}
	for i, x := range v {
		if x != 0 {
			b.Mask[i/64] |= 1 << uint(i%64)
			b.Vals = append(b.Vals, x)
		}
	}
	return b
}

// Decode expands the bitmap back into a dense vector.
func (b *BitmapVec) Decode() []int32 {
	out := make([]int32, b.N)
	vi := 0
	for i := 0; i < b.N; i++ {
		if b.Mask[i/64]&(1<<uint(i%64)) != 0 {
			out[i] = b.Vals[vi]
			vi++
		}
	}
	return out
}

// NNZ returns the number of non-zero values.
func (b *BitmapVec) NNZ() int { return len(b.Vals) }

// SizeBits returns the encoded size: the full-length bitmask plus the packed
// payload.
func (b *BitmapVec) SizeBits() int { return b.N + len(b.Vals)*b.Bits }

// MatchCount returns the number of positions where both vectors are non-zero
// — the inner-join workload (one matched pair is extracted per cycle per
// inner-join module in SparTen).
func MatchCount(a, w *BitmapVec) int {
	if a.N != w.N {
		panic(fmt.Sprintf("sparse: bitmap length mismatch %d vs %d", a.N, w.N))
	}
	cnt := 0
	for i := range a.Mask {
		cnt += popcount64(a.Mask[i] & w.Mask[i])
	}
	return cnt
}

// MatchedPairs extracts the (activation, weight) value pairs at the matched
// positions, in ascending position order — exactly what the inner-join feeds
// the MAC. The scalar product of the vectors is the sum of pair products.
func MatchedPairs(a, w *BitmapVec) [][2]int32 {
	if a.N != w.N {
		panic("sparse: bitmap length mismatch")
	}
	var out [][2]int32
	ai, wi := 0, 0
	for i := 0; i < a.N; i++ {
		word, bit := i/64, uint(i%64)
		an := a.Mask[word]&(1<<bit) != 0
		wn := w.Mask[word]&(1<<bit) != 0
		if an && wn {
			out = append(out, [2]int32{a.Vals[ai], w.Vals[wi]})
		}
		if an {
			ai++
		}
		if wn {
			wi++
		}
	}
	return out
}

// LaneMatchCounts partitions the logical vector into lanes contiguous
// sub-ranges of laneLen positions and returns the per-lane matched-pair
// counts. SparTen-mp runs one inner-join per lane in parallel; the slowest
// lane bounds extraction throughput (Section II-B2a).
func LaneMatchCounts(a, w *BitmapVec, laneLen int) []int {
	if a.N != w.N {
		panic("sparse: bitmap length mismatch")
	}
	lanes := (a.N + laneLen - 1) / laneLen
	counts := make([]int, lanes)
	for i := 0; i < a.N; i++ {
		word, bit := i/64, uint(i%64)
		if a.Mask[word]&w.Mask[word]&(1<<bit) != 0 {
			counts[i/laneLen]++
		}
	}
	return counts
}

func popcount64(x uint64) int { return bits.OnesCount64(x) }

// AppendMaskWords appends the non-zero bitmask words of v to dst (64
// positions per word, bit i%64 of word i/64 set iff v[i] != 0) and returns
// the extended slice. This is the zero-skipping front end the stream
// builders use: consumers iterate set bits with bits.TrailingZeros64 and
// never branch on the zero positions, the same word-at-a-time walk SparTen's
// inner join performs over its bitmasks.
func AppendMaskWords(dst []uint64, v []int32) []uint64 {
	for base := 0; base < len(v); base += 64 {
		end := base + 64
		if end > len(v) {
			end = len(v)
		}
		var word uint64
		for i, x := range v[base:end] {
			if x != 0 {
				word |= 1 << uint(i)
			}
		}
		dst = append(dst, word)
	}
	return dst
}
