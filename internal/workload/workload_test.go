package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/model"
	"ristretto/internal/quant"
)

func TestFeatureMapRespectsDensityTarget(t *testing.T) {
	g := NewGen(1)
	f := g.FeatureMap(8, 32, 32, 8, 0.3)
	d := f.Density()
	if d > 0.3+1.0/float64(f.Len()) {
		t.Fatalf("density %v exceeds target 0.3", d)
	}
	if d < 0.25 {
		t.Fatalf("density %v implausibly below target", d)
	}
}

func TestKernelsRespectDensityTarget(t *testing.T) {
	g := NewGen(2)
	k := g.Kernels(64, 64, 3, 3, 4, 0.4)
	d := k.Density()
	if d > 0.4+1.0/float64(k.Len()) || d < 0.3 {
		t.Fatalf("kernel density %v not near target 0.4", d)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGen(7).FeatureMap(2, 8, 8, 8, 0.5)
	b := NewGen(7).FeatureMap(2, 8, 8, 8, 0.5)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestExactModeDensities(t *testing.T) {
	g := NewGen(3)
	f := g.FeatureMapExact(4, 64, 64, 8, 2, 0.5, 0.6)
	s := quant.Measure(f.Data, 8, 2)
	if math.Abs(s.ValueDensity-0.5) > 0.05 {
		t.Fatalf("value density %v far from 0.5", s.ValueDensity)
	}
	// Atom density is conditioned on at-least-one-atom, so it lands at or a
	// bit above the requested probability.
	if s.AtomDensity < 0.55 || s.AtomDensity > 0.75 {
		t.Fatalf("atom density %v far from 0.6", s.AtomDensity)
	}
}

func TestExactKernelsSignedRange(t *testing.T) {
	g := NewGen(4)
	k := g.KernelsExact(4, 4, 3, 3, 8, 2, 0.7, 0.5)
	limit := int32(127)
	sawNeg := false
	for _, v := range k.Data {
		if v > limit || v < -limit {
			t.Fatalf("weight %d outside signed 8-bit magnitude range", v)
		}
		sawNeg = sawNeg || v < 0
	}
	if !sawNeg {
		t.Fatal("no negative weights generated")
	}
}

func TestSparseVector(t *testing.T) {
	g := NewGen(5)
	v := g.SparseVector(10000, 8, 0.4, false)
	nz := 0
	for _, x := range v {
		if x < 0 || x > 255 {
			t.Fatalf("unsigned vector value %d out of range", x)
		}
		if x != 0 {
			nz++
		}
	}
	if math.Abs(float64(nz)/10000-0.4) > 0.03 {
		t.Fatalf("vector density %v far from 0.4", float64(nz)/10000)
	}
	sv := g.SparseVector(10000, 8, 1.0, true)
	for _, x := range sv {
		if x == 0 || x > 127 || x < -127 {
			t.Fatalf("signed dense vector value %d invalid", x)
		}
	}
}

func TestEvalTargetsTrend(t *testing.T) {
	for _, net := range []string{"AlexNet", "VGG-16", "ResNet-50"} {
		t8 := EvalTargets(net, 8, 8)
		t4 := EvalTargets(net, 4, 4)
		t2 := EvalTargets(net, 2, 2)
		if !(t2.WDensity < t4.WDensity && t4.WDensity < t8.WDensity) {
			t.Errorf("%s weight density not decreasing with bits: %v %v %v", net, t8, t4, t2)
		}
		if !(t2.ADensity < t4.ADensity && t4.ADensity < t8.ADensity) {
			t.Errorf("%s act density not decreasing with bits: %v %v %v", net, t8, t4, t2)
		}
	}
}

func TestLayerStatsConsistency(t *testing.T) {
	g := NewGen(6)
	l := model.Layer{Name: "t", C: 8, H: 16, W: 16, K: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	s := g.LayerStats(l, 4, 8, 2, Targets{WDensity: 0.5, ADensity: 0.4}, true)
	sumA, sumW := 0, 0
	for c := 0; c < l.C; c++ {
		sumA += s.ActAtomsPerChan[c]
		sumW += s.WAtomsPerChan[c]
	}
	if sumA != s.A.NonZeroAtoms {
		t.Fatalf("per-channel act atoms %d != total %d", sumA, s.A.NonZeroAtoms)
	}
	if sumW != s.W.NonZeroAtoms {
		t.Fatalf("per-channel weight atoms %d != total %d", sumW, s.W.NonZeroAtoms)
	}
	if s.WBits != 4 || s.ABits != 8 {
		t.Fatalf("bit-widths not recorded: %d %d", s.WBits, s.ABits)
	}
	// Term histogram covers all elements.
	tot := 0
	for _, c := range s.ATermHist {
		tot += c
	}
	if tot != int(l.Activations()) {
		t.Fatalf("act term histogram sums to %d, want %d", tot, l.Activations())
	}
}

func TestNetworkStats(t *testing.T) {
	g := NewGen(8)
	n := model.AlexNet()
	p := model.Uniform(n, 2)
	stats := g.NetworkStats(n, p, atom.Granularity(2), true)
	if len(stats) != len(n.Layers) {
		t.Fatal("stats length mismatch")
	}
	for i, s := range stats {
		if s.Layer.Name != n.Layers[i].Name {
			t.Fatal("layer order lost")
		}
		if s.A.NonZeroAtoms <= 0 || s.W.NonZeroAtoms <= 0 {
			t.Fatalf("layer %s has empty streams", s.Layer.Name)
		}
	}
}

func TestPerChannelDensityVariation(t *testing.T) {
	// Real feature maps have uneven per-channel occupancy; the generator
	// must reproduce it (the Figure 18 balancing study depends on it).
	g := NewGen(30)
	f := g.FeatureMap(32, 24, 24, 8, 0.4)
	min, max := 1.0, 0.0
	for c := 0; c < f.C; c++ {
		nz := 0
		for _, v := range f.Channel(c) {
			if v != 0 {
				nz++
			}
		}
		d := float64(nz) / float64(24*24)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max < 1.5*min {
		t.Fatalf("channel densities too uniform: min %.3f max %.3f", min, max)
	}
	// But the mean must stay near the target.
	overall := f.Density()
	if overall < 0.28 || overall > 0.45 {
		t.Fatalf("overall density %.3f drifted from 0.4 target", overall)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	// Distinct label paths must give distinct seeds; identical paths the
	// same seed; and order must matter.
	a := DeriveSeed(1, "AlexNet", "8b")
	if a != DeriveSeed(1, "AlexNet", "8b") {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]string{a: "AlexNet/8b"}
	for _, labels := range [][]string{
		{"AlexNet", "2b"}, {"8b", "AlexNet"}, {"AlexNet8b"}, {"VGG-16", "8b"}, {"AlexNet", "8b", ""},
	} {
		s := DeriveSeed(1, labels...)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %v vs %s", labels, prev)
		}
		seen[s] = labels[0]
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("base seed ignored")
	}
}

func TestDeriveSeedDecorrelatesLowBits(t *testing.T) {
	// The expression DeriveSeed replaces (seed ^ hash*bits) pushed entropy
	// out of the low bits when bits shared a power-of-two factor. The low
	// bits of derived seeds must flip roughly half the time across labels.
	flips := 0
	const n = 256
	prev := DeriveSeed(1, "net", "0")
	for i := 1; i < n; i++ {
		s := DeriveSeed(1, "net", string(rune('0'+i%64)))
		if s&1 != prev&1 {
			flips++
		}
		prev = s
	}
	if flips < n/4 || flips > 3*n/4 {
		t.Fatalf("low bit flipped %d/%d times; seeds correlated", flips, n)
	}
}

// TestSynthesisWidths checks the widths synthesis serves. At every width
// from 2 to 8 bits, FeatureMap and Kernels must equal math/rand's draws
// (refGen) and LayerStats and NetworkStats must draw; at 9, 12 and 16 bits
// all four must panic with a message that names the width.
func TestSynthesisWidths(t *testing.T) {
	l := model.Layer{Name: "l", C: 3, H: 6, W: 5, K: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	n := &model.Network{Name: "one-layer", Layers: []model.Layer{l}}
	tg := Targets{WDensity: 0.5, ADensity: 0.4}
	draws := []struct {
		name string
		draw func(g *Gen, bits int)
	}{
		{"FeatureMap", func(g *Gen, bits int) { g.FeatureMap(l.C, l.H, l.W, bits, tg.ADensity) }},
		{"Kernels", func(g *Gen, bits int) { g.Kernels(l.K, l.C, l.KH, l.KW, bits, tg.WDensity) }},
		{"LayerStats", func(g *Gen, bits int) { g.LayerStats(l, bits, bits, 2, tg, true) }},
		{"NetworkStats", func(g *Gen, bits int) { g.NetworkStats(n, model.Uniform(n, bits), 2, true) }},
	}
	for bits := 2; bits <= 8; bits++ {
		g, r := NewGen(int64(bits)), refGen{rand.New(rand.NewSource(int64(bits)))}
		if !reflect.DeepEqual(g.FeatureMap(l.C, l.H, l.W, bits, tg.ADensity), r.featureMap(l.C, l.H, l.W, bits, tg.ADensity)) {
			t.Fatalf("FeatureMap at %d bits differs from math/rand's", bits)
		}
		if !reflect.DeepEqual(g.Kernels(l.K, l.C, l.KH, l.KW, bits, tg.WDensity), r.kernels(l.K, l.C, l.KH, l.KW, bits, tg.WDensity)) {
			t.Fatalf("Kernels at %d bits differs from math/rand's", bits)
		}
		for _, d := range draws[2:] {
			d.draw(g, bits)
		}
	}
	for _, d := range draws {
		for _, bits := range []int{9, 12, 16} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				d.draw(NewGen(1), bits)
				return ""
			}()
			if !strings.Contains(msg, fmt.Sprintf("%d-bit", bits)) {
				t.Fatalf("%s at %d bits: panic %q, want one that names the width", d.name, bits, msg)
			}
		}
	}
}
