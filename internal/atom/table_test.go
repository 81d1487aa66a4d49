package atom

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// digitsNaive counts the non-zero n-bit digits of mag one digit at a time.
func digitsNaive(mag uint32, n Granularity) int {
	cnt := 0
	for ; mag != 0; mag >>= uint(n) {
		if mag&(1<<uint(n)-1) != 0 {
			cnt++
		}
	}
	return cnt
}

// TestCountTablesMatchDefinitions pins the 256-entry atom, NAF-term and
// popcount tables against independent definitions (the digit loop, the
// length of the NAF recoding, bits.OnesCount32) and against the exported
// per-value counters that read them, for every magnitude below 256.
func TestCountTablesMatchDefinitions(t *testing.T) {
	for mag := uint32(0); mag < 256; mag++ {
		for _, v := range []int32{int32(mag), -int32(mag)} {
			for n := Granularity(1); n <= 4; n++ {
				want := digitsNaive(mag, n)
				if int(nzCount[n-1][mag]) != want || CountNonZero(v, 9, n) != want {
					t.Fatalf("atoms(%d, n=%d): table %d, CountNonZero %d, want %d", v, n, nzCount[n-1][mag], CountNonZero(v, 9, n), want)
				}
			}
			if want := len(NAFTerms(v)); int(termCount[1][mag]) != want || TermCount(v) != want {
				t.Fatalf("NAF terms(%d): table %d, TermCount %d, want %d", v, termCount[1][mag], TermCount(v), want)
			}
			if want := bits.OnesCount32(mag); int(termCount[0][mag]) != want || OneCount(v) != want {
				t.Fatalf("popcount(%d): table %d, OneCount %d, want %d", v, termCount[0][mag], OneCount(v), want)
			}
		}
	}
}

// TestCountFallbackAbove255 covers the per-value fallback 16-bit magnitudes
// take past the tables.
func TestCountFallbackAbove255(t *testing.T) {
	if got := Magnitude(math.MinInt32); got != 1<<31 {
		t.Fatalf("Magnitude(MinInt32) = %d, want 1<<31", got)
	}
	for mag := uint32(256); mag < 1<<16; mag += 97 {
		v := -int32(mag)
		for n := Granularity(1); n <= 4; n++ {
			if got, want := CountNonZero(v, 17, n), digitsNaive(mag, n); got != want {
				t.Fatalf("CountNonZero(%d, n=%d) = %d, want %d", v, n, got, want)
			}
		}
		if got, want := TermCount(v), len(NAFTerms(v)); got != want {
			t.Fatalf("TermCount(%d) = %d, want %d", v, got, want)
		}
		if got, want := OneCount(v), bits.OnesCount32(mag); got != want {
			t.Fatalf("OneCount(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestMagTermHistogramMatchesTermHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, limit := range []int{2, 128, 256, 1 << 16} {
		data := make([]int32, 5000)
		hist := []int{0}
		for i := range data {
			if rng.Intn(4) > 0 {
				data[i] = int32(rng.Intn(limit)) * int32(1-2*rng.Intn(2))
			}
			m := int(Magnitude(data[i]))
			for len(hist) <= m {
				hist = append(hist, 0)
			}
			hist[m]++
		}
		for _, booth := range []bool{true, false} {
			if got, want := MagTermHistogram(hist, booth), TermHistogram(data, booth); !reflect.DeepEqual(got, want) {
				t.Fatalf("limit %d booth %v: MagTermHistogram %v, TermHistogram %v", limit, booth, got, want)
			}
		}
	}
	if h := MagTermHistogram([]int{0, 0}, true); h != nil {
		t.Fatalf("empty histogram gave %v, want nil like TermHistogram(nil)", h)
	}
}
