// Package atom implements the bit-level decomposition at the heart of
// condensed streaming computation (paper Section III-A).
//
// An m-bit integer is viewed as a stream of ceil(m/N) N-bit atoms; the value
// equals the sum of atom<<shift terms. Zero atoms carry no information and are
// squeezed out, exploiting bit-level sparsity. Signed weights are decomposed
// in sign-magnitude form: the magnitude is atomized and each atom carries a
// sign flag that negates its partial products.
package atom

import "fmt"

// Atom is one non-zero N-bit digit of a value.
type Atom struct {
	Mag   uint8 // digit value, 1 <= Mag < 1<<N (0 allowed only in dense mode)
	Shift uint8 // bit offset of the digit within the value (multiple of N)
	Sign  bool  // true if the owning value is negative (weights only)
	Last  bool  // true for the final (most-significant surviving) atom of a value
}

// Term returns the signed contribution of the atom: ±Mag<<Shift.
func (a Atom) Term() int32 {
	t := int32(a.Mag) << a.Shift
	if a.Sign {
		return -t
	}
	return t
}

// String formats the atom as its signed term, e.g. "-3<<2,last".
func (a Atom) String() string {
	s := "+"
	if a.Sign {
		s = "-"
	}
	last := ""
	if a.Last {
		last = ",last"
	}
	return fmt.Sprintf("%s%d<<%d%s", s, a.Mag, a.Shift, last)
}

// Granularity describes the atom bit-width N. The paper evaluates N∈{1,2,3};
// the default Ristretto configuration uses 2-bit atoms.
type Granularity int

// Validate panics unless the granularity is one the paper evaluates.
func (n Granularity) Validate() {
	if n < 1 || n > 4 {
		panic(fmt.Sprintf("atom: unsupported granularity %d", int(n)))
	}
}

// Count returns the number of atoms an m-bit value decomposes into: ceil(m/N).
func (n Granularity) Count(bits int) int {
	return (bits + int(n) - 1) / int(n)
}

// ShiftRange returns the possible shift offsets of atoms of a value with the
// given bit-width, reproducing Table IV (e.g. 8-bit activations with 2-bit
// atoms shift by {0,2,4,6}).
func (n Granularity) ShiftRange(bits int) []int {
	cnt := n.Count(bits)
	r := make([]int, cnt)
	for i := range r {
		r[i] = i * int(n)
	}
	return r
}

// Decompose splits value v (given as a signed integer with |v| < 1<<bits for
// unsigned activations, or |v| < 1<<(bits-1) for signed weights — the caller
// guarantees range) into its non-zero atoms, least-significant first. A zero
// value yields no atoms. The final surviving atom carries Last=true.
func Decompose(v int32, bits int, n Granularity) []Atom {
	n.Validate()
	sign, mag := signMag(v, bits)
	if mag >= 256 {
		return decompose(v, bits, n, false)
	}
	tab := nzDigits[n-1][mag]
	if len(tab) == 0 {
		return nil
	}
	out := make([]Atom, len(tab))
	copy(out, tab)
	if sign {
		for i := range out {
			out[i].Sign = true
		}
	}
	return out
}

// DecomposeDense is like Decompose but keeps zero atoms, modelling the
// non-sparse (Ristretto-ns) configuration where every atom slot is occupied.
// A zero value still yields a full complement of ceil(bits/N) zero atoms.
func DecomposeDense(v int32, bits int, n Granularity) []Atom {
	return decompose(v, bits, n, true)
}

// Magnitude returns |v| without a branch; the most negative int32 maps to
// 1<<31.
func Magnitude(v int32) uint32 {
	s := v >> 31
	return uint32((v ^ s) - s)
}

func panicRange(v int32, bits int) {
	panic(fmt.Sprintf("atom: value %d does not fit in %d bits", v, bits))
}

func decompose(v int32, bits int, n Granularity, dense bool) []Atom {
	n.Validate()
	sign, mag := signMag(v, bits)
	cnt := n.Count(bits)
	mask := uint32(1)<<uint(n) - 1
	var out []Atom
	for i := 0; i < cnt; i++ {
		d := uint8((mag >> (uint(i) * uint(n))) & mask)
		if d != 0 || dense {
			out = append(out, Atom{Mag: d, Shift: uint8(i * int(n)), Sign: sign})
		}
	}
	if len(out) > 0 {
		out[len(out)-1].Last = true
	}
	return out
}

// Reconstruct sums the terms of a decomposition back into the value. It is
// the inverse of Decompose/DecomposeDense and anchors the round-trip property
// tests.
func Reconstruct(atoms []Atom) int32 {
	var v int32
	for _, a := range atoms {
		v += a.Term()
	}
	return v
}

// CountNonZero returns how many non-zero atoms v contains at granularity n —
// the per-value workload unit of condensed streaming computation.
func CountNonZero(v int32, bits int, n Granularity) int {
	n.Validate()
	mag := Magnitude(v)
	if mag < 256 {
		return int(nzCount[n-1][mag])
	}
	mask := uint32(1)<<uint(n) - 1
	cnt := 0
	for i := 0; i < n.Count(bits); i++ {
		if (mag>>(uint(i)*uint(n)))&mask != 0 {
			cnt++
		}
	}
	return cnt
}

// TotalNonZeroAtoms returns the total number of non-zero atoms across data —
// the stream length after value- and bit-level compression.
func TotalNonZeroAtoms(data []int32, bits int, n Granularity) int {
	t := 0
	for _, v := range data {
		if v != 0 {
			t += CountNonZero(v, bits, n)
		}
	}
	return t
}

// ProductShiftRange returns the set of shift offsets a product of an
// activation atom and a weight atom would need if shifts were not decoupled:
// the pairwise sums of the two operand shift ranges. Ristretto avoids this
// wide range by decoupling the weight shift into the accumulate buffer
// (Section IV-C2); this function exists to quantify that design point in the
// granularity ablation (Figure 19a).
func ProductShiftRange(actBits, wBits int, n Granularity) []int {
	as := n.ShiftRange(actBits)
	ws := n.ShiftRange(wBits)
	seen := map[int]bool{}
	var out []int
	for _, a := range as {
		for _, w := range ws {
			if !seen[a+w] {
				seen[a+w] = true
				out = append(out, a+w)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
