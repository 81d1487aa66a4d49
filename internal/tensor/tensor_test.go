package tensor

import (
	"testing"
	"testing/quick"
)

func TestFeatureMapAccess(t *testing.T) {
	f := NewFeatureMap(3, 4, 5, 8)
	f.Set(2, 3, 4, 255)
	f.Set(0, 0, 0, 7)
	if f.At(2, 3, 4) != 255 || f.At(0, 0, 0) != 7 {
		t.Fatal("At/Set mismatch")
	}
	if f.Len() != 60 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.NonZero() != 2 {
		t.Fatalf("NonZero = %d", f.NonZero())
	}
	if got := f.Density(); got != 2.0/60.0 {
		t.Fatalf("Density = %v", got)
	}
}

func TestFeatureMapRangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range activation")
		}
	}()
	f := NewFeatureMap(1, 1, 1, 4)
	f.Set(0, 0, 0, 16)
}

func TestKernelStackAccess(t *testing.T) {
	w := NewKernelStack(2, 3, 3, 3, 4)
	w.Set(1, 2, 2, 2, -7)
	w.Set(0, 0, 0, 0, 7)
	if w.At(1, 2, 2, 2) != -7 || w.At(0, 0, 0, 0) != 7 {
		t.Fatal("At/Set mismatch")
	}
	if len(w.Kernel(1)) != 27 {
		t.Fatalf("Kernel slice len = %d", len(w.Kernel(1)))
	}
	if w.Kernel(1)[26] != -7 {
		t.Fatal("Kernel view does not share storage")
	}
}

func TestKernelStackRangeCheck(t *testing.T) {
	w := NewKernelStack(1, 1, 1, 1, 4)
	for _, bad := range []int32{8, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weight %d at 4 bits", bad)
				}
			}()
			w.Set(0, 0, 0, 0, bad)
		}()
	}
	w.Set(0, 0, 0, 0, 7)
	w.Set(0, 0, 0, 0, -7)
}

func TestCloneIndependence(t *testing.T) {
	f := NewFeatureMap(1, 2, 2, 8)
	f.Set(0, 0, 0, 5)
	g := f.Clone()
	g.Set(0, 0, 0, 9)
	if f.At(0, 0, 0) != 5 {
		t.Fatal("Clone shares storage")
	}
	w := NewKernelStack(1, 1, 2, 2, 8)
	w.Set(0, 0, 0, 0, -5)
	w2 := w.Clone()
	w2.Set(0, 0, 0, 0, 3)
	if w.At(0, 0, 0, 0) != -5 {
		t.Fatal("KernelStack Clone shares storage")
	}
}

func TestOutputMapEqualAndDiff(t *testing.T) {
	a := NewOutputMap(1, 2, 2)
	b := NewOutputMap(1, 2, 2)
	a.Add(0, 1, 1, 10)
	b.Set(0, 1, 1, 7)
	if a.Equal(b) {
		t.Fatal("Equal on differing maps")
	}
	if a.MaxAbsDiff(b) != 3 {
		t.Fatalf("MaxAbsDiff = %d", a.MaxAbsDiff(b))
	}
	b.Add(0, 1, 1, 3)
	if !a.Equal(b) {
		t.Fatal("Equal after fixing")
	}
	c := NewOutputMap(2, 2, 2)
	if a.Equal(c) {
		t.Fatal("Equal across shapes")
	}
}

func TestTileGridCoversPlaneExactly(t *testing.T) {
	f := func(w8, h8, tw8, th8 uint8) bool {
		w, h := int(w8%40)+1, int(h8%40)+1
		tw, th := int(tw8%9)+1, int(th8%9)+1
		tiles := TileGrid(w, h, tw, th)
		covered := make([]bool, w*h)
		for _, tl := range tiles {
			if tl.W > tw || tl.H > th || tl.W <= 0 || tl.H <= 0 {
				return false
			}
			for y := tl.Y0; y < tl.Y0+tl.H; y++ {
				for x := tl.X0; x < tl.X0+tl.W; x++ {
					idx := y*w + x
					if covered[idx] {
						return false // overlap
					}
					covered[idx] = true
				}
			}
		}
		for _, c := range covered {
			if !c {
				return false // gap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{224, 3, 1, 1, 224},
		{224, 7, 2, 3, 112},
		{227, 11, 4, 0, 55},
		{56, 1, 1, 0, 56},
		{56, 3, 2, 1, 28},
		{2, 5, 1, 0, 0},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
	if FullConvSize(8, 3) != 10 {
		t.Fatal("FullConvSize")
	}
}

func TestStringSummaries(t *testing.T) {
	f := NewFeatureMap(1, 2, 2, 8)
	f.Set(0, 0, 0, 1)
	if got := f.String(); got != "FeatureMap(1x2x2, 8b, density=0.250)" {
		t.Fatalf("FeatureMap.String = %q", got)
	}
	w := NewKernelStack(1, 1, 1, 1, 4)
	if got := w.String(); got != "KernelStack(1x1x1x1, 4b, density=0.000)" {
		t.Fatalf("KernelStack.String = %q", got)
	}
	tl := Tile{X0: 1, Y0: 2, W: 3, H: 4}
	if got := tl.String(); got != "Tile(1,2 3x4)" {
		t.Fatalf("Tile.String = %q", got)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { NewFeatureMap(0, 1, 1, 8) },
		func() { NewKernelStack(1, 0, 1, 1, 8) },
		func() { NewFeatureMap(1, 1, 1, 17) },
		func() { TileGrid(4, 4, 0, 2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
