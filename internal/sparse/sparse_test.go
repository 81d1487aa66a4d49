package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ristretto/internal/tensor"
)

func randFeatureMap(rng *rand.Rand, c, h, w, bits int, density float64) *tensor.FeatureMap {
	f := tensor.NewFeatureMap(c, h, w, bits)
	for i := range f.Data {
		if rng.Float64() < density {
			f.Data[i] = int32(rng.Intn(1<<bits-1) + 1)
		}
	}
	return f
}

func TestTileCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randFeatureMap(rng, 3, 17, 13, 8, 0.4)
	for _, tl := range tensor.TileGrid(f.W, f.H, 8, 8) {
		for c := 0; c < f.C; c++ {
			enc := EncodeTile(f, c, tl)
			got := tensor.NewFeatureMap(f.C, f.H, f.W, f.Bits)
			enc.DecodeInto(got)
			for y := 0; y < tl.H; y++ {
				for x := 0; x < tl.W; x++ {
					if got.At(c, tl.Y0+y, tl.X0+x) != f.At(c, tl.Y0+y, tl.X0+x) {
						t.Fatalf("tile %v c=%d mismatch at (%d,%d)", tl, c, x, y)
					}
				}
			}
		}
	}
}

func TestTileCOOZigzagOrder(t *testing.T) {
	f := tensor.NewFeatureMap(1, 2, 2, 8)
	f.Set(0, 0, 1, 5)
	f.Set(0, 1, 0, 9)
	enc := EncodeTile(f, 0, tensor.Tile{W: 2, H: 2})
	if len(enc.Entries) != 2 || enc.Entries[0].Val != 5 || enc.Entries[1].Val != 9 {
		t.Fatalf("zigzag order violated: %+v", enc.Entries)
	}
}

func TestTileCOOSize(t *testing.T) {
	f := tensor.NewFeatureMap(1, 4, 4, 4)
	f.Set(0, 0, 0, 3)
	f.Set(0, 3, 3, 1)
	enc := EncodeTile(f, 0, tensor.Tile{W: 4, H: 4})
	// 2 entries × (4-bit payload + 2+2-bit coordinates) + 16-bit header.
	if enc.SizeBits() != 16+2*(4+4) {
		t.Fatalf("SizeBits = %d", enc.SizeBits())
	}
	if enc.NNZ() != 2 {
		t.Fatalf("NNZ = %d", enc.NNZ())
	}
}

func TestBitmapRoundTripProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%200 + 1
		v := make([]int32, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = int32(rng.Intn(255) + 1)
			}
		}
		b := EncodeBitmap(v, 8)
		dec := b.Decode()
		for i := range v {
			if dec[i] != v[i] {
				return false
			}
		}
		return b.SizeBits() == n+b.NNZ()*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchCountAndPairs(t *testing.T) {
	a := EncodeBitmap([]int32{0, 2, 3, 0, 5, 0}, 8)
	w := EncodeBitmap([]int32{1, 0, 4, 0, 6, 7}, 8)
	if MatchCount(a, w) != 2 {
		t.Fatalf("MatchCount = %d, want 2", MatchCount(a, w))
	}
	pairs := MatchedPairs(a, w)
	if len(pairs) != 2 || pairs[0] != [2]int32{3, 4} || pairs[1] != [2]int32{5, 6} {
		t.Fatalf("MatchedPairs = %v", pairs)
	}
	// Inner product via matched pairs equals dense dot product.
	var dot, dense int32
	for _, p := range pairs {
		dot += p[0] * p[1]
	}
	da, dw := a.Decode(), w.Decode()
	for i := range da {
		dense += da[i] * dw[i]
	}
	if dot != dense {
		t.Fatalf("sparse dot %d != dense %d", dot, dense)
	}
}

func TestLaneMatchCounts(t *testing.T) {
	av := make([]int32, 64)
	wv := make([]int32, 64)
	for i := 0; i < 64; i++ {
		av[i] = 1
	}
	wv[0], wv[1], wv[33] = 1, 1, 1
	counts := LaneMatchCounts(EncodeBitmap(av, 8), EncodeBitmap(wv, 8), 32)
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("LaneMatchCounts = %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != MatchCount(EncodeBitmap(av, 8), EncodeBitmap(wv, 8)) {
		t.Fatal("lane counts do not sum to MatchCount")
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed int64, r8, c8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := int(r8)%20+1, int(c8)%20+1
		dense := make([]int32, rows*cols)
		for i := range dense {
			if rng.Intn(4) == 0 {
				dense[i] = int32(rng.Intn(200) - 100)
			}
		}
		m := EncodeCSR(dense, rows, cols, 8)
		dec := m.Decode()
		for i := range dense {
			if dec[i] != dense[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRowView(t *testing.T) {
	dense := []int32{0, 5, 0, 7, 0, 9}
	m := EncodeCSR(dense, 2, 3, 8)
	cols, vals := m.Row(1)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 7 || vals[1] != 9 {
		t.Fatalf("Row(1) = %v %v", cols, vals)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestEncodeTileRejectsOversizedTiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiles beyond 8-bit coordinates")
		}
	}()
	f := tensor.NewFeatureMap(1, 300, 300, 8)
	EncodeTile(f, 0, tensor.Tile{W: 300, H: 300})
}
