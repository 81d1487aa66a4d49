package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/quant"
	"ristretto/internal/tensor"
)

// raceBuild is set under -race, which slows the single-goroutine stream
// arithmetic below ~10×; those runs draw a tenth as many values.
var raceBuild bool

// drawCount scales a plain run's draw count down under -race.
func drawCount(n int) int {
	if raceBuild {
		return n / 10
	}
	return n
}

var streamSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64}

// TestSourceMatchesStdlib checks the back-solved ring against the standard
// library's source output for output, including seeds that reduce to the
// same ring (0 and the multiples of 2^31-1) and the extremes of int64.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range streamSeeds {
		ref := rand.NewSource(seed).(rand.Source64)
		s := newSource(seed)
		for i := range drawCount(1_000_000) {
			if want, got := ref.Uint64(), s.Uint64(); got != want {
				t.Fatalf("seed %d, output %d: %#x, want %#x", seed, i, got, want)
			}
		}
		if want, got := ref.Int63(), s.Int63(); got != want {
			t.Fatalf("seed %d: Int63 %d, want %d", seed, got, want)
		}
	}
	var s source
	s.Seed(5)
	if want, got := rand.NewSource(5).Int63(), s.Int63(); got != want {
		t.Fatalf("Seed(5) on a zero source: Int63 %d, want %d", got, want)
	}
}

// countingSource counts the values a rand.Rand takes from it.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// TestNormalsMatchStdlib checks the inline ziggurat fill bit for bit
// against rand.Rand.NormFloat64 over 10^7 draws per seed, fed in uneven
// slices so a slow-path draw lands at every position of a fill. Both of
// NormFloat64's slow paths must occur: the strip-0 tail (|x| >= rn, which
// the fast path never returns) and the wedge test of the other strips
// (more than one value consumed, no tail).
func TestNormalsMatchStdlib(t *testing.T) {
	const rn = 3.442619855899 // math/rand's tail start
	buf, js := make([]float64, 1000), make([]int32, 1000)
	for _, seed := range streamSeeds {
		cs := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(cs)
		g := NewGen(seed)
		tails, wedges := 0, 0
		for drawn, i := 0, 0; drawn < drawCount(10_000_000); i++ {
			d := draws{js: js[:1+i%len(js)]}
			g.src.normals(&d)
			xs := buf[:len(d.js)]
			d.floats(xs)
			for j, x := range xs {
				before := cs.n
				want := ref.NormFloat64()
				if math.Float64bits(x) != math.Float64bits(want) {
					t.Fatalf("seed %d, draw %d: %v, want %v", seed, drawn+j, x, want)
				}
				switch {
				case math.Abs(want) >= rn:
					tails++
				case cs.n-before > 1:
					wedges++
				}
			}
			drawn += len(xs)
		}
		if tails == 0 || wedges == 0 {
			t.Fatalf("seed %d: %d tail and %d wedge draws; both slow paths must run", seed, tails, wedges)
		}
		if want, got := ref.Uint64(), g.rng.Uint64(); got != want {
			t.Fatalf("seed %d: stream out of step after the fills: %#x, want %#x", seed, got, want)
		}
	}
}

// refGen is the generator as it was on math/rand alone: each method is a
// copy of the Gen method of the same name, drawing every value through
// rand.Rand.
type refGen struct{ rng *rand.Rand }

func (r refGen) featureMap(c, h, w, bits int, aDensity float64) *tensor.FeatureMap {
	f := tensor.NewFeatureMap(c, h, w, bits)
	q := actQuantizer(bits)
	for ch := 0; ch < c; ch++ {
		plane := f.Channel(ch)
		for i := range plane {
			plane[i] = q.Code(r.rng.NormFloat64())
		}
		quant.PruneToDensity(plane, planeDensity(aDensity, ch))
	}
	return f
}

func (r refGen) kernels(k, c, kh, kw, bits int, wDensity float64) *tensor.KernelStack {
	ks := tensor.NewKernelStack(k, c, kh, kw, bits)
	q := weightQuantizer(bits)
	for i := range ks.Data {
		ks.Data[i] = q.Code(r.rng.NormFloat64())
	}
	quant.PruneToDensity(ks.Data, wDensity)
	return ks
}

func (r refGen) value(bits int, gran atom.Granularity, atomDensity float64, signed bool) int32 {
	magBits := bits
	if signed {
		magBits = bits - 1
	}
	cnt := gran.Count(magBits)
	var v int32
	for v == 0 {
		for i := 0; i < cnt; i++ {
			rem := magBits - i*int(gran)
			digitMax := 1<<uint(gran) - 1
			if rem < int(gran) {
				digitMax = 1<<uint(rem) - 1
			}
			if digitMax > 0 && r.rng.Float64() < atomDensity {
				v |= int32(r.rng.Intn(digitMax)+1) << (uint(i) * uint(gran))
			}
		}
	}
	if signed && r.rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func (r refGen) featureMapExact(c, h, w, bits int, gran atom.Granularity, valueDensity, atomDensity float64) *tensor.FeatureMap {
	f := tensor.NewFeatureMap(c, h, w, bits)
	for i := range f.Data {
		if r.rng.Float64() < valueDensity {
			f.Data[i] = r.value(bits, gran, atomDensity, false)
		}
	}
	return f
}

func (r refGen) kernelsExact(k, c, kh, kw, bits int, gran atom.Granularity, valueDensity, atomDensity float64) *tensor.KernelStack {
	ks := tensor.NewKernelStack(k, c, kh, kw, bits)
	for i := range ks.Data {
		if r.rng.Float64() < valueDensity {
			ks.Data[i] = r.value(bits, gran, atomDensity, true)
		}
	}
	return ks
}

func (r refGen) sparseVector(n, bits int, density float64, signed bool) []int32 {
	v := make([]int32, n)
	for i := range v {
		if r.rng.Float64() >= density {
			continue
		}
		if signed {
			lim := 1<<(bits-1) - 1
			x := int32(r.rng.Intn(2*lim+1) - lim)
			if x == 0 {
				x = 1
			}
			v[i] = x
		} else {
			v[i] = int32(r.rng.Intn(1<<bits-1) + 1)
		}
	}
	return v
}

// TestExactModeLockstep interleaves the exact-mode draws, which read the
// stream through rand.Rand, with normal fills, which walk it inline, and
// requires every tensor and the stream position to match math/rand's.
func TestExactModeLockstep(t *testing.T) {
	for _, seed := range []int64{3, -11, 1 << 40} {
		g, r := NewGen(seed), refGen{rand.New(rand.NewSource(seed))}
		for round := range 4 {
			bits := 2 + 2*round
			check := func(what string, got, want any) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d: %s differs from math/rand's", seed, round, what)
				}
			}
			check("FeatureMapExact", g.FeatureMapExact(3, 9, 7, bits, 2, 0.5, 0.6), r.featureMapExact(3, 9, 7, bits, 2, 0.5, 0.6))
			check("FeatureMap", g.FeatureMap(4, 11, 13, bits, 0.4), r.featureMap(4, 11, 13, bits, 0.4))
			check("KernelsExact", g.KernelsExact(5, 3, 3, 3, bits, 1, 0.7, 0.5), r.kernelsExact(5, 3, 3, 3, bits, 1, 0.7, 0.5))
			check("Kernels", g.Kernels(7, 6, 3, 3, bits, 0.45), r.kernels(7, 6, 3, 3, bits, 0.45))
			// Over two chunks of weights, whose surplus ties at the threshold
			// run past the first chunk: the tie cut is found through the
			// per-chunk histograms.
			check("Kernels over three chunks", g.Kernels(64, 64, 3, 3, bits, 0.3), r.kernels(64, 64, 3, 3, bits, 0.3))
			check("SparseVector signed", g.SparseVector(301, bits, 0.4, true), r.sparseVector(301, bits, 0.4, true))
			check("SparseVector unsigned", g.SparseVector(77, bits, 0.9, false), r.sparseVector(77, bits, 0.9, false))
		}
		if want, got := r.rng.Uint64(), g.rng.Uint64(); got != want {
			t.Fatalf("seed %d: stream out of step: %#x, want %#x", seed, got, want)
		}
	}
}
