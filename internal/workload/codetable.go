package workload

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"ristretto/internal/atom"
	"ristretto/internal/quant"
)

// A codeTable codes fast draws (ziggurat.go) for one default quantizer
// without a float operation. A fast draw j of strip k = j&0x7f stands for
// the normal float64(j)*float64(wn[k]), and its code is exact from the
// table for three reasons:
//
//   - for a = |j|, the magnitude Code(float64(a)*float64(wn[k])) never
//     decreases as a grows, as the product, the division by the positive
//     step, the clamp and the rounding all keep order;
//   - signed codes are odd in j: negating v negates v/scale exactly, and
//     the clamp and the rounding are symmetric;
//   - unsigned codes are 0 for every j <= 0.
//
// So the table keeps, per strip, the magnitude over |j| in 1<<bb buckets of
// 1<<shift values each: its value at the bucket's first |j|, and the |j|
// where it steps up by one, if it does. Tables exist for 2 to 8 bits, the
// widths synthesis draws, where no bucket steps more than once.
//
// An entry is base<<shift + (1<<shift - off): base is the magnitude at the
// bucket's first |j|, lo, and lo+off the |j| where it steps to base+1
// (off = 1<<shift if it does not), so that (e + |j| - lo) >> shift is the
// magnitude at |j|. At 8 bits or fewer base is below 256 and shift at
// least 31-maxBucketBits, so the sum fits 32 bits.
type codeTable struct {
	q     quant.Quantizer
	shift uint     // a bucket holds 1<<shift values of |j|
	bb    uint     // 1<<bb buckets per strip
	neg   int32    // -1 if negative draws code to 0 (unsigned), else 0
	e     []uint32 // strip k's bucket b at k<<bb | b
}

// maxBucketBits caps the buckets per strip at 256: enough for every
// bucket to step at most once, and 128 KB per table.
const maxBucketBits = 8

// The widths code tables exist for.
const minBits, maxBits = 2, 8

// A word is what the coding loop writes for one draw: its code (int32),
// or, where only magnitudes are read and the table is signed, its
// magnitude in one byte (uint8).
type word interface{ ~uint8 | ~int32 }

// byteWords reports whether W holds magnitudes in one byte.
func byteWords[W word]() bool { return ^W(0) > 0 }

// magnitude returns the magnitude a word holds.
func magnitude[W word](v W) int {
	if byteWords[W]() {
		return int(v)
	}
	return max(int(v), -int(v))
}

// code writes the words of d's draws to out and counts their magnitudes
// in hist: 256 buckets for byte words, so that run indexes it by a byte
// without a bounds check, and one per magnitude of the table otherwise.
func code[W word](t *codeTable, out []W, hist []int, d *draws) {
	if byteWords[W]() && t.neg != 0 {
		panic("workload: byte words from an unsigned code table")
	}
	run(t, out, hist, d.js)
	// A slow draw is coded 0 so far: by run, as its index falls in strip
	// 1's first bucket, which begins at magnitude 0, and its |j| is a
	// multiple of every bucket's width. Its code, from its finished
	// normal, replaces that 0.
	for s, i := range d.at {
		c := t.q.Code(d.slow[s])
		if byteWords[W]() {
			out[i] = W(atom.Magnitude(c))
		} else {
			out[i] = W(c)
		}
		hist[0]--
		hist[atom.Magnitude(c)]++
	}
}

// run codes the draws of js into out and hist, slowDraw as 0 (code). It
// makes no call, and its shifts by the table's width are multiplies by
// 1<<bb followed by a shift by 31, so the loop keeps its values in
// registers. Byte words come from signed tables, so their loop needs no
// sign test.
func run[W word](t *codeTable, out []W, hist []int, js []int32) {
	e, neg := t.e, t.neg
	scale := uint64(1) << (t.bb & 31) // x>>shift is x*scale>>31
	mask := uint32(1)<<(t.shift&31) - 1
	if byteWords[W]() {
		_ = hist[255]
	}
	out = out[:len(js)]
	for i, j := range js {
		sgn := j >> 31
		a := uint32((j ^ sgn) - sgn) // |j|, and 1<<31 for slowDraw
		// k<<bb | a>>shift, in range for slowDraw too: strip 1's first bucket
		v := e[(uint64(j&0x7f)<<31|uint64(a))*scale>>31]
		if byteWords[W]() {
			m := uint8(uint64(v+a&mask) * scale >> 31)
			out[i] = W(m)
			hist[m]++
			continue
		}
		m := int32(uint64(v+a&mask)*scale>>31) &^ (sgn & neg)
		out[i] = W((m ^ sgn) - sgn)
		hist[m]++
	}
}

// The code tables of the default quantizers, built on first use and then
// read-only: weights' (signed) in [0], activations' (unsigned) in [1],
// indexed by bit-width less minBits.
var tables [2][maxBits - minBits + 1]struct {
	once sync.Once
	t    *codeTable
}

// weightTable and actTable return the code tables of weightQuantizer(bits)
// and actQuantizer(bits). They panic at a width outside 2 to 8 bits.
func weightTable(bits int) *codeTable { return table(0, bits, weightQuantizer) }
func actTable(bits int) *codeTable    { return table(1, bits, actQuantizer) }

func table(kind, bits int, q func(int) quant.Quantizer) *codeTable {
	if bits < minBits || bits > maxBits {
		panic(fmt.Sprintf("workload: cannot draw %d-bit operands: synthesis serves %d to %d bits", bits, minBits, maxBits))
	}
	s := &tables[kind][bits-minBits]
	s.once.Do(func() { s.t = newCodeTable(q(bits), kind == 1) })
	return s.t
}

// newCodeTable builds q's table. It finds by bisection on Code the least
// x >= 0 that codes to 1, x1; as q is uniform, magnitude m then begins near
// x = (2m-1)*x1, so in strip k near |j| = x/wn[k], and each step placed
// there is moved to where Code says it is. The buckets are the fewest that
// hold at most one step each, up to 1<<maxBucketBits; it panics if a
// bucket would step twice.
func newCodeTable(q quant.Quantizer, unsigned bool) *codeTable {
	const top = 1 << 31 // past every |j|
	mag := func(a uint64, k int) int32 { return q.Code(float64(a) * float64(wn[k])) }
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // Code(0) < 1 <= Code(+Inf)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; q.Code(math.Float64frombits(mid)) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	x1 := math.Float64frombits(hi)
	// step returns the least |j| of strip k whose magnitude is m or more,
	// or top if there is none.
	step := func(m int32, k int) uint64 {
		if int(m) > q.MaxCode() {
			return top
		}
		a := uint64(min(math.Ceil(float64(2*m-1)*x1/float64(wn[k])), top))
		for a > 0 && mag(a-1, k) >= m {
			a--
		}
		for a < top && mag(a, k) < m {
			a++
		}
		return a
	}

	// The widest buckets in which no two successive steps of a strip meet.
	s := 31
	for k := range wn {
		prev := step(1, k)
		for m := int32(2); prev < top && s > 31-maxBucketBits; m++ {
			a := step(m, k)
			if a < top {
				s = min(s, bits.Len64(prev^a)-1) // -1 if they coincide
			}
			prev = a
		}
	}
	shift := uint(max(s, 31-maxBucketBits))

	t := &codeTable{q: q, shift: shift, bb: 31 - shift, e: make([]uint32, len(wn)<<(31-shift))}
	if unsigned {
		t.neg = -1
	}
	width := uint64(1) << shift
	for k := range wn {
		m, next := int32(1), step(1, k) // next: where magnitude m begins
		for b := range uint64(1) << t.bb {
			lo := b << shift
			if next <= lo {
				m = mag(lo, k) + 1
				next = step(m, k)
			}
			base := uint64(m - 1) // the magnitude at lo
			e := &t.e[uint64(k)<<t.bb|b]
			if next >= lo+width { // no step in the bucket
				*e = uint32(base << shift)
			} else if after := step(m+1, k); after >= lo+width { // one step
				*e = uint32(base<<shift + width - (next - lo))
				m, next = m+1, after
			} else {
				panic(fmt.Sprintf("workload: code table to %d: strip %d bucket %d steps twice", q.MaxCode(), k, b))
			}
		}
	}
	return t
}
