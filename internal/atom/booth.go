package atom

import "math/bits"

// Bit-serial accelerators such as Laconic, Bit-Pragmatic and Bit-Tactical
// process only the "effectual terms" of an operand: a signed-power-of-two
// recoding where each term is ±2^k. Laconic uses a Booth-style encoder at the
// PE-array boundary; we implement the non-adjacent form (NAF), the canonical
// minimal signed-digit recoding Booth encoders approximate. The per-pair
// workload of a Laconic multiplier is #terms(a) × #terms(w) cycles.

// Term is one signed power-of-two component of a value.
type Term struct {
	Shift uint8 // exponent k
	Neg   bool  // true for -2^k
}

// NAFTerms returns the non-adjacent-form terms of v, least significant first.
// The NAF of v has the minimum number of non-zero signed digits of any
// base-2 signed-digit representation.
func NAFTerms(v int32) []Term {
	var terms []Term
	x := int64(v)
	neg := x < 0
	if neg {
		x = -x
	}
	shift := uint8(0)
	for x != 0 {
		if x&1 != 0 {
			d := 2 - (x & 3) // +1 if x ≡ 1 (mod 4), -1 if x ≡ 3 (mod 4)
			terms = append(terms, Term{Shift: shift, Neg: (d < 0) != neg})
			x -= d
		}
		x >>= 1
		shift++
	}
	return terms
}

// TermValue reconstructs the value from its signed power-of-two terms.
func TermValue(terms []Term) int32 {
	var v int64
	for _, t := range terms {
		p := int64(1) << t.Shift
		if t.Neg {
			v -= p
		} else {
			v += p
		}
	}
	return int32(v)
}

// TermCount returns the number of effectual (non-zero) NAF terms of v; zero
// values have zero terms. This is the bit-serial workload unit.
func TermCount(v int32) int { return terms(Magnitude(v), true) }

// OneCount returns the plain popcount of |v| — the term count of a naive
// (non-Booth) bit-serial encoder. Exposed so the Laconic model can be
// configured either way.
func OneCount(v int32) int { return terms(Magnitude(v), false) }

// terms returns the effectual terms of magnitude mag: NAF terms if booth,
// else its popcount. Magnitudes below 256 read the precomputed table.
func terms(mag uint32, booth bool) int {
	if mag < 256 {
		b := 0
		if booth {
			b = 1
		}
		return int(termCount[b][mag])
	}
	if booth {
		return nafCount(mag)
	}
	return bits.OnesCount32(mag)
}

// nafCount counts the non-zero digits of the non-adjacent form of mag.
func nafCount(mag uint32) int {
	cnt := 0
	x := int64(mag)
	for x != 0 {
		if x&1 != 0 {
			x -= 2 - (x & 3) // +1 if x ≡ 1 (mod 4), -1 if x ≡ 3 (mod 4)
			cnt++
		}
		x >>= 1
	}
	return cnt
}

// TermHistogram returns h where h[t] counts values in data with exactly t
// effectual terms (NAF if booth, else popcount). Used by the distribution-
// based Laconic performance model to compute expected maxima cheaply.
func TermHistogram(data []int32, booth bool) []int {
	var h []int
	for _, v := range data {
		h = addTerms(h, Magnitude(v), 1, booth)
	}
	return h
}

// MagTermHistogram is TermHistogram over a magnitude histogram, where
// hist[m] counts the values of magnitude m: the same h, read off one bucket
// at a time instead of one value at a time.
func MagTermHistogram(hist []int, booth bool) []int {
	var h []int
	for m, c := range hist {
		if c > 0 {
			h = addTerms(h, uint32(m), c, booth)
		}
	}
	return h
}

// addTerms adds count values of magnitude mag to the term histogram h,
// growing it as needed.
func addTerms(h []int, mag uint32, count int, booth bool) []int {
	t := terms(mag, booth)
	for len(h) <= t {
		h = append(h, 0)
	}
	h[t] += count
	return h
}
