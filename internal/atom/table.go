package atom

import "math/bits"

// Precomputed decomposition tables. Stream building atomizes every non-zero
// value of every feature map and kernel, so the per-value digit extraction is
// one of the innermost loops of the whole simulator. Magnitudes are at most
// 8-bit for every paper configuration (16-bit operands go through the
// spatial/temporal extensions, which decompose into 8-bit halves or hit the
// generic fallback below), so one 256-entry table per granularity covers the
// hot path: nzDigits[n-1][mag] holds the non-zero atoms of mag with Sign
// unset and Last already set on the final atom.
var nzDigits [4][256][]Atom

// nzCount[n-1][mag] = len(nzDigits[n-1][mag]), kept separate so pure counting
// passes avoid touching the slice headers.
var nzCount [4][256]uint8

// termCount[0][mag] is the popcount of mag and termCount[1][mag] its number
// of non-adjacent-form terms: the bit-serial workload of mag under a plain
// and under a Booth encoder (OneCount, TermCount), indexed by the booth flag.
var termCount [2][256]uint8

func init() {
	for mag := uint32(0); mag < 256; mag++ {
		termCount[0][mag] = uint8(bits.OnesCount32(mag))
		termCount[1][mag] = uint8(nafCount(mag))
	}
	for n := Granularity(1); n <= 4; n++ {
		mask := uint32(1)<<uint(n) - 1
		for mag := uint32(0); mag < 256; mag++ {
			var out []Atom
			for i := 0; i < n.Count(8); i++ {
				if d := uint8((mag >> (uint(i) * uint(n))) & mask); d != 0 {
					out = append(out, Atom{Mag: d, Shift: uint8(i * int(n))})
				}
			}
			if len(out) > 0 {
				out[len(out)-1].Last = true
			}
			nzDigits[n-1][mag] = out
			nzCount[n-1][mag] = uint8(len(out))
		}
	}
}

// Digits returns the non-zero atoms of the unsigned magnitude mag (< 256) at
// granularity n, least-significant first, with Last set on the final atom
// and Sign unset — straight from the precomputed table. The returned slice
// is shared: callers must treat it as read-only and copy atoms out.
func Digits(mag uint32, n Granularity) []Atom {
	n.Validate()
	return nzDigits[n-1][mag]
}

// DigitCount returns the number of non-zero atoms of mag at granularity n
// without materializing them.
func DigitCount(mag uint32, n Granularity) int {
	n.Validate()
	if mag < 256 {
		return int(nzCount[n-1][mag])
	}
	mask := uint32(1)<<uint(n) - 1
	cnt := 0
	for m := mag; m != 0; m >>= uint(n) {
		if m&mask != 0 {
			cnt++
		}
	}
	return cnt
}

// signMag splits v into sign and magnitude, enforcing the range contract
// shared by every decomposition entry point.
func signMag(v int32, bits int) (bool, uint32) {
	sign, mag := v < 0, Magnitude(v)
	if bits <= 0 || mag >= 1<<uint(bits) {
		panicRange(v, bits)
	}
	return sign, mag
}
