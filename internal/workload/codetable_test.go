package workload

import (
	"fmt"
	"testing"

	"ristretto/internal/atom"
)

// tableWidths are the widths the code table tests cover: every width a
// layer draws.
var tableWidths = []int{2, 3, 4, 5, 6, 7, 8}

// codeTables returns the weight and activation tables at bits, each with
// its quantizer kind.
func codeTables(bits int) map[string]*codeTable {
	return map[string]*codeTable{"signed": weightTable(bits), "unsigned": actTable(bits)}
}

// tableCode decodes the code of j = ±a in strip k from t's entries, as
// run does for a draw, whose k is j&0x7f.
func tableCode(t *codeTable, k, j int32) int32 {
	sgn := j >> 31
	a := uint32((j ^ sgn) - sgn)
	v := t.e[(uint64(k)<<31|uint64(a))>>t.shift]
	m := int32((v+a&(1<<t.shift-1))>>t.shift) &^ (sgn & t.neg)
	return (m ^ sgn) - sgn
}

// TestCodeTablesMatchCode checks every entry of the signed and unsigned
// tables against Code at the bucket's first and last |j|, and at its step
// and one below, for both signs of j. The buckets must be the fewest that
// step at most once: with half as many, one would step twice. slowDraw,
// whose index falls in strip 1's first bucket, must code to 0 there.
func TestCodeTablesMatchCode(t *testing.T) {
	for _, bits := range tableWidths {
		for kind, tab := range codeTables(bits) {
			name := fmt.Sprintf("%s %d-bit", kind, bits)
			width := uint32(1) << tab.shift
			checked := 0
			for k := range int32(len(wn)) {
				for b := range uint32(1) << tab.bb {
					lo, hi := b*width, b*width+width-1
					e := tab.e[uint32(k)<<tab.bb|b]
					points := []uint32{lo, hi}
					if off := width - e&(width-1); off < width {
						points = append(points, lo+off, lo+off-1)
					}
					for _, a := range points {
						for _, j := range []int32{int32(a), -int32(a)} {
							want := tab.q.Code(float64(j) * float64(wn[k]))
							if got := tableCode(tab, k, j); got != want {
								t.Fatalf("%s: strip %d bucket %d, j %d: code %d, Code says %d", name, k, b, j, got, want)
							}
							checked++
						}
					}
				}
			}
			// code relies on run coding slowDraw as 0 in strip 1's first
			// bucket.
			if c := tableCode(tab, 0, slowDraw); c != 0 {
				t.Fatalf("%s: slowDraw codes to %d, not 0", name, c)
			}
			if tab.bb > 0 && !coarserStepsTwice(tab) {
				t.Fatalf("%s: %d buckets per strip, but half as many would each step at most once", name, 1<<tab.bb)
			}
			t.Logf("%s: %d buckets per strip, %d points checked", name, 1<<tab.bb, checked)
		}
	}
}

// coarserStepsTwice reports whether some bucket of t's strips, were each
// two neighbouring buckets merged, would step twice or more.
func coarserStepsTwice(t *codeTable) bool {
	width := uint64(1) << (t.shift + 1)
	for k := range wn {
		for lo := uint64(0); lo < 1<<31; lo += width {
			first := t.q.Code(float64(lo) * float64(wn[k]))
			last := t.q.Code(float64(lo+width-1) * float64(wn[k]))
			if last-first >= 2 {
				return true
			}
		}
	}
	return false
}

// FuzzCodeTable codes a fuzzed j through the table of a fuzzed width and
// kind, and requires a draw that passes the fast test to code to
// Code(float64(j)*float64(wn[j&0x7f])), counted at its magnitude.
func FuzzCodeTable(f *testing.F) {
	f.Add(int32(0), uint8(0), false)
	f.Add(int32(-1), uint8(2), true)
	f.Add(int32(1<<30+5), uint8(6), false)
	f.Add(int32(-1<<30-77), uint8(10), true)
	f.Add(int32(0x600f1b52), uint8(14), false)
	f.Fuzz(func(t *testing.T, j int32, width uint8, unsigned bool) {
		k := j & 0x7f
		if uint32(max(j, -j)) >= kn[k] {
			return // a slow draw: the table never sees its j
		}
		bits := minBits + int(width)%(maxBits-minBits+1)
		tab := weightTable(bits)
		if unsigned {
			tab = actTable(bits)
		}
		out, hist := make([]int32, 1), make([]int, tab.q.MaxCode()+1)
		code(tab, out, hist, &draws{js: []int32{j}})
		want := tab.q.Code(float64(j) * float64(wn[k]))
		if out[0] != want || hist[atom.Magnitude(want)] != 1 {
			t.Fatalf("%d-bit unsigned %v, j %d: code %d, Code says %d; histogram %v", bits, unsigned, j, out[0], want, hist)
		}
	})
}
