package atom

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDecomposeExample29(t *testing.T) {
	// Paper Section III-A: 29 = 01_11_01 under 2-bit atoms is the term set
	// {1<<4, 3<<2, 1<<0}.
	atoms := Decompose(29, 8, 2)
	want := []Atom{
		{Mag: 1, Shift: 0},
		{Mag: 3, Shift: 2},
		{Mag: 1, Shift: 4, Last: true},
	}
	if !reflect.DeepEqual(atoms, want) {
		t.Fatalf("Decompose(29) = %v, want %v", atoms, want)
	}
	if Reconstruct(atoms) != 29 {
		t.Fatalf("Reconstruct = %d, want 29", Reconstruct(atoms))
	}
}

func TestDecomposeNegative(t *testing.T) {
	atoms := Decompose(-11, 8, 2) // |−11| = 00_10_11
	if Reconstruct(atoms) != -11 {
		t.Fatalf("Reconstruct(-11 atoms) = %d", Reconstruct(atoms))
	}
	for _, a := range atoms {
		if !a.Sign {
			t.Fatalf("atom %v of -11 must carry sign", a)
		}
	}
	if n := len(atoms); n != 2 {
		t.Fatalf("got %d atoms, want 2 (digits 3 and 2)", n)
	}
}

func TestDecomposeZero(t *testing.T) {
	if got := Decompose(0, 8, 2); got != nil {
		t.Fatalf("Decompose(0) = %v, want nil", got)
	}
	dense := DecomposeDense(0, 8, 2)
	if len(dense) != 4 {
		t.Fatalf("DecomposeDense(0,8,2) len = %d, want 4", len(dense))
	}
	if !dense[3].Last {
		t.Fatal("dense decomposition must mark last atom")
	}
}

func TestLastFlagMarksFinalAtom(t *testing.T) {
	for v := int32(1); v < 256; v++ {
		atoms := Decompose(v, 8, 2)
		for i, a := range atoms {
			if a.Last != (i == len(atoms)-1) {
				t.Fatalf("v=%d atom %d Last flag wrong: %v", v, i, atoms)
			}
		}
	}
}

func TestShiftRangeTableIV(t *testing.T) {
	// Table IV: activation shift ranges under 2-bit atoms.
	cases := []struct {
		bits int
		want []int
	}{
		{8, []int{0, 2, 4, 6}},
		{6, []int{0, 2, 4}},
		{4, []int{0, 2}},
		{2, []int{0}},
	}
	for _, c := range cases {
		if got := Granularity(2).ShiftRange(c.bits); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ShiftRange(%d) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestGranularityCount(t *testing.T) {
	cases := []struct {
		n    Granularity
		bits int
		want int
	}{
		{1, 8, 8}, {2, 8, 4}, {3, 8, 3}, {2, 4, 2}, {2, 2, 1}, {3, 4, 2},
	}
	for _, c := range cases {
		if got := c.n.Count(c.bits); got != c.want {
			t.Errorf("Granularity(%d).Count(%d) = %d, want %d", c.n, c.bits, got, c.want)
		}
	}
}

func TestProductShiftRange(t *testing.T) {
	// Section IV-C2: a coupled 2-bit×2-bit product of 8-bit operands would
	// need shifts {0,2,4,6,8,10,12}.
	got := ProductShiftRange(8, 8, 2)
	want := []int{0, 2, 4, 6, 8, 10, 12}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProductShiftRange = %v, want %v", got, want)
	}
	// 1-bit granularity widens it to {0..14} (Figure 19a rationale).
	if got := ProductShiftRange(8, 8, 1); len(got) != 15 {
		t.Fatalf("1-bit product shift range has %d entries, want 15", len(got))
	}
}

func TestDecomposeRoundTripProperty(t *testing.T) {
	f := func(raw int16, granSeed uint8) bool {
		n := Granularity(granSeed%3 + 1)
		v := int32(raw % 128) // fits 8-bit signed magnitude
		atoms := Decompose(v, 8, n)
		if Reconstruct(atoms) != v {
			return false
		}
		dense := DecomposeDense(v, 8, n)
		if Reconstruct(dense) != v {
			return false
		}
		if len(dense) != n.Count(8) {
			return false
		}
		return len(atoms) == CountNonZero(v, 8, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnsignedFullRange(t *testing.T) {
	for _, n := range []Granularity{1, 2, 3} {
		for v := int32(0); v < 256; v++ {
			if got := Reconstruct(Decompose(v, 8, n)); got != v {
				t.Fatalf("n=%d v=%d reconstruct=%d", n, v, got)
			}
		}
	}
}

func TestNAFRoundTrip(t *testing.T) {
	for v := int32(-4096); v <= 4096; v++ {
		if got := TermValue(NAFTerms(v)); got != v {
			t.Fatalf("NAF round trip failed for %d: got %d", v, got)
		}
	}
}

func TestNAFMinimality(t *testing.T) {
	// NAF never uses more terms than the plain binary representation.
	for v := int32(0); v < 1<<12; v++ {
		if TermCount(v) > OneCount(v) {
			t.Fatalf("NAF terms (%d) exceed popcount (%d) for %d", TermCount(v), OneCount(v), v)
		}
	}
	// Classic witness: 255 = 2^8 - 2^0 needs 2 NAF terms vs 8 bits.
	if TermCount(255) != 2 {
		t.Fatalf("TermCount(255) = %d, want 2", TermCount(255))
	}
}

func TestNAFNonAdjacency(t *testing.T) {
	f := func(raw int16) bool {
		terms := NAFTerms(int32(raw))
		for i := 1; i < len(terms); i++ {
			if terms[i].Shift == terms[i-1].Shift+1 {
				return false // adjacent non-zero digits violate NAF
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalNonZeroAtoms(t *testing.T) {
	// At 2-bit over 8 bits, 0 has no non-zero atoms, 1 has one and
	// 0b01010101=85 has four.
	data := []int32{0, 1, 85}
	if TotalNonZeroAtoms(data, 8, 2) != 5 {
		t.Fatalf("TotalNonZeroAtoms = %d, want 5", TotalNonZeroAtoms(data, 8, 2))
	}
}

func TestTermHistogram(t *testing.T) {
	data := []int32{0, 1, 3, 255}
	h := TermHistogram(data, true)
	// terms: 0→0, 1→1, 3→2 (4-1), 255→2 (256-1)
	if h[0] != 1 || h[1] != 1 || h[2] != 2 {
		t.Fatalf("TermHistogram = %v", h)
	}
	hp := TermHistogram(data, false)
	// popcounts: 0,1,2,8
	if hp[0] != 1 || hp[1] != 1 || hp[2] != 1 || hp[8] != 1 {
		t.Fatalf("popcount TermHistogram = %v", hp)
	}
}

func TestRandomizedDecomposeAgainstNaiveSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		bits := []int{2, 4, 6, 8}[rng.Intn(4)]
		n := Granularity(rng.Intn(3) + 1)
		v := int32(rng.Intn(1 << (bits - 1)))
		if rng.Intn(2) == 0 {
			v = -v
		}
		var sum int32
		for _, a := range Decompose(v, bits, n) {
			sum += a.Term()
		}
		if sum != v {
			t.Fatalf("bits=%d n=%d v=%d sum=%d", bits, n, v, sum)
		}
	}
}
