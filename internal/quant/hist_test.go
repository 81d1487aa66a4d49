package quant

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ristretto/internal/atom"
)

// prunePrev is the three-pass magnitude pruning PruneToDensity replaced:
// count, histogram, threshold scan, then an index-order pass that keeps the
// first surplus ties. The histogram rule must reproduce it value for value.
func prunePrev(data []int32, density float64) float64 {
	keep := int(math.Ceil(density * float64(len(data))))
	nz := 0
	for _, v := range data {
		if v != 0 {
			nz++
		}
	}
	if nz <= keep {
		return float64(nz) / float64(len(data))
	}
	maxAbs := 0
	for _, v := range data {
		a := int(v)
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	hist := make([]int, maxAbs+1)
	for _, v := range data {
		a := int(v)
		if a < 0 {
			a = -a
		}
		hist[a]++
	}
	remain := nz
	t := 0
	for ; t <= maxAbs; t++ {
		if t > 0 {
			remain -= hist[t]
		}
		if remain <= keep {
			break
		}
	}
	surplus := keep - remain
	kept := 0
	for i, v := range data {
		a := v
		if a < 0 {
			a = -a
		}
		switch {
		case a == 0:
		case int(a) > t:
			kept++
		case int(a) == t && surplus > 0:
			surplus--
			kept++
		default:
			data[i] = 0
		}
	}
	return float64(kept) / float64(len(data))
}

func TestPruneToDensityEmpty(t *testing.T) {
	for _, d := range []float64{0, 0.5, 1} {
		if got := PruneToDensity(nil, d); got != 0 {
			t.Errorf("PruneToDensity(nil, %v) = %v, want 0", d, got)
		}
		if got := PruneToDensity([]int32{}, d); got != 0 {
			t.Errorf("PruneToDensity([], %v) = %v, want 0", d, got)
		}
	}
}

func TestPruneMatchesThreePassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type slice struct {
		name string
		data []int32
	}
	draw := func(n, lo, hi int) []int32 {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(lo + rng.Intn(hi-lo+1))
		}
		return d
	}
	var cases []slice
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(700)
		cases = append(cases,
			slice{"ternary", draw(n, -1, 1)}, // every non-zero ties
			slice{"4b", draw(n, -7, 7)},
			slice{"8b-signed", draw(n, -127, 127)},
			slice{"8b-unsigned", draw(n, 0, 255)},
			slice{"16b", draw(n, -40000, 40000)})
	}
	cases = append(cases,
		slice{"all-zero", make([]int32, 64)},
		slice{"one", []int32{-3}},
		slice{"all-ties", []int32{5, -5, 5, 5, -5, 5, -5, -5}},
		slice{"ties-after-zeros", []int32{0, 0, 2, 0, -2, 2, 1, 3, -2, 0}})
	densities := []float64{0, 1, 0.5, 0.3, 1.0 / 3}
	for i := 0; i < 6; i++ {
		densities = append(densities, rng.Float64())
	}
	for _, c := range cases {
		for _, d := range densities {
			want := append([]int32(nil), c.data...)
			got := append([]int32(nil), c.data...)
			wantD := prunePrev(want, d)
			gotD := PruneToDensity(got, d)
			if !reflect.DeepEqual(got, want) || gotD != wantD {
				t.Fatalf("%s (len %d) at density %v: got %v (%v), want %v (%v)", c.name, len(c.data), d, got, gotD, want, wantD)
			}
			// The histogram PruneHist leaves behind is the pruned data's.
			hist := MagnitudeHist(c.data, nil)
			PruneHist(hist, d)
			wantHist := MagnitudeHist(want, nil)
			for len(wantHist) < len(hist) {
				wantHist = append(wantHist, 0)
			}
			if !reflect.DeepEqual(hist, wantHist) {
				t.Fatalf("%s at density %v: pruned histogram %v, want %v", c.name, d, hist, wantHist)
			}
		}
	}
}

func TestMagnitudeHistReusesBuffer(t *testing.T) {
	buf := MagnitudeHist([]int32{9, -9, 3}, nil)
	h := MagnitudeHist([]int32{0, -2, 2, 1}, buf)
	if want := []int{1, 1, 2}; !reflect.DeepEqual(h, want) {
		t.Fatalf("MagnitudeHist = %v, want %v", h, want)
	}
	if h := MagnitudeHist(nil, buf); !reflect.DeepEqual(h, []int{0}) {
		t.Fatalf("empty MagnitudeHist = %v, want [0]", h)
	}
}

func TestMeasureHistMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, bits := range []int{2, 4, 8, 16} {
		data := make([]int32, 3000)
		for i := range data {
			if rng.Intn(3) > 0 {
				data[i] = int32(rng.Intn(1<<(bits-1))) * int32(1-2*rng.Intn(2))
			}
		}
		for n := 1; n <= 3; n++ {
			want := Measure(data, bits, atom.Granularity(n))
			if got := MeasureHist(MagnitudeHist(data, nil), bits, atom.Granularity(n)); got != want {
				t.Fatalf("bits %d gran %d: MeasureHist %+v, Measure %+v", bits, n, got, want)
			}
		}
	}
}

// quantPrev is the slice quantizer Quantizer.Code replaced.
func quantPrev(v, std float64, cfg Config, signed bool) int32 {
	clip := cfg.ClipSigma * std
	if signed {
		qmax := float64(int32(1)<<(cfg.Bits-1) - 1)
		q := math.Round(v / (clip / qmax))
		if q > qmax {
			q = qmax
		}
		if q < -qmax {
			q = -qmax
		}
		return int32(q)
	}
	if v <= 0 {
		return 0
	}
	qmax := float64(int32(1)<<cfg.Bits - 1)
	q := math.Round(v / (clip / qmax))
	if q > qmax {
		q = qmax
	}
	return int32(q)
}

func TestQuantizerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		0.5, -0.5, 1.5, -2.5, 0.49999999999999994, -0.49999999999999994, 1e300, -1e300, 3e9, -3e9}
	for _, bits := range []int{2, 3, 4, 6, 8, 16, 31} {
		for _, clip := range []float64{DefaultWeightClip(bits), DefaultActClip(bits), 0, -1.5} {
			for _, std := range []float64{1, 0.25, 0} {
				cfg := Config{Bits: bits, ClipSigma: clip}
				sq, uq := NewSigned(std, cfg), NewUnsigned(std, cfg)
				values := append([]float64(nil), specials...)
				if scale := clip * std / float64(int32(1)<<(bits-1)-1); scale != 0 {
					// Quotients at and next to the rounding ties.
					for k := -5; k <= 5; k++ {
						v := (float64(k) + 0.5) * scale
						values = append(values, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
					}
				}
				for i := 0; i < 2000; i++ {
					values = append(values, rng.NormFloat64()*[]float64{1, 4, 1e-3}[i%3])
				}
				for _, v := range values {
					if got, want := sq.Code(v), quantPrev(v, std, cfg, true); got != want {
						t.Fatalf("signed bits %d clip %v std %v: Code(%v) = %d, want %d", bits, clip, std, v, got, want)
					}
					if got, want := uq.Code(v), quantPrev(v, std, cfg, false); got != want {
						t.Fatalf("unsigned bits %d clip %v std %v: Code(%v) = %d, want %d", bits, clip, std, v, got, want)
					}
				}
			}
		}
	}
}
