package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/workload"
)

// One shared quick bench for all tests: scale-8 spatial dims, two networks.
// Ratios at quick scale are noisier than the full-scale runs recorded in
// EXPERIMENTS.md, so assertions here are directional.
func quickBench() *Bench {
	b := NewQuickBench(1, 8)
	b.Nets = []string{"AlexNet", "ResNet-18"}
	return b
}

func cellF(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(r.Cell(row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not numeric: %v", r.ID, row, col, r.Cell(row, col), err)
	}
	return v
}

func findRow(t *testing.T, r *Result, match ...string) int {
	t.Helper()
outer:
	for i, row := range r.Rows {
		for j, m := range match {
			if m != "" && (j >= len(row) || row[j] != m) {
				continue outer
			}
		}
		return i
	}
	t.Fatalf("%s: no row matching %v", r.ID, match)
	return -1
}

func TestFigure1Trend(t *testing.T) {
	r := NewQuickBench(1, 8).Figure1()
	if len(r.Rows) != 5*4 {
		t.Fatalf("%d rows, want 20", len(r.Rows))
	}
	// Per network: sparsity at 2 bits must exceed sparsity at 8 bits, for
	// both operands; 2-bit values should be near the paper anchors.
	for net := 0; net < 5; net++ {
		w8, a8 := cellF(t, r, net*4, 2), cellF(t, r, net*4, 3)
		w2, a2 := cellF(t, r, net*4+3, 2), cellF(t, r, net*4+3, 3)
		if w2 <= w8 || a2 <= a8 {
			t.Fatalf("row %d: sparsity not increasing (w %v→%v, a %v→%v)", net, w8, w2, a8, a2)
		}
		if w2 < 35 || w2 > 60 {
			t.Errorf("2-bit weight sparsity %.1f%% far from paper 47.4%%", w2)
		}
		if a2 < 63 || a2 > 88 {
			t.Errorf("2-bit act sparsity %.1f%% far from paper 75.3%%", a2)
		}
	}
}

func TestFigure4Invariants(t *testing.T) {
	r := NewQuickBench(1, 8).Figure4()
	for i := range r.Rows {
		theo, avg, tile := cellF(t, r, i, 2), cellF(t, r, i, 3), cellF(t, r, i, 4)
		if theo > avg+1e-9 || avg > tile+1e-9 {
			t.Fatalf("row %d: ordering violated (%v %v %v)", i, theo, avg, tile)
		}
	}
	// Headline: on the large tile, 60% sparsity cuts theoretical latency by
	// >2× but tile latency by much less.
	dense := findRow(t, r, "6x8", "0.00%")
	sparse := findRow(t, r, "6x8", "60.00%")
	theoGain := cellF(t, r, dense, 2) / cellF(t, r, sparse, 2)
	tileGain := cellF(t, r, dense, 4) / cellF(t, r, sparse, 4)
	if theoGain < 2 {
		t.Fatalf("theoretical gain %v too small", theoGain)
	}
	if tileGain > theoGain*0.75 {
		t.Fatalf("tile latency too sensitive to sparsity: gain %v vs theoretical %v", tileGain, theoGain)
	}
}

func TestTableIVContent(t *testing.T) {
	r := TableIV()
	if r.Cell(0, 1) != "[0 2 4 6]" || r.Cell(3, 1) != "[0]" {
		t.Fatalf("Table IV wrong: %v", r.Rows)
	}
}

func TestTableVITotal(t *testing.T) {
	r := TableVI()
	if r.Cell(len(r.Rows)-1, 1) != "1.296" {
		t.Fatalf("Table VI total = %s", r.Cell(len(r.Rows)-1, 1))
	}
}

func TestTaxonomyTables(t *testing.T) {
	ts := Taxonomy()
	if len(ts) != 4 {
		t.Fatalf("%d taxonomy tables", len(ts))
	}
	last := ts[3]
	row := findRow(t, last, "SparTen-mp")
	if last.Cell(row, 1) != "yes" || last.Cell(row, 3) != "yes" {
		t.Fatal("SparTen-mp row wrong in Table V")
	}
}

func TestFigure12RistrettoWins(t *testing.T) {
	b := quickBench()
	r := b.Figure12()
	for _, prec := range PrecisionNames {
		row := findRow(t, r, "geomean", prec)
		sp := cellF(t, r, row, 2)
		ns := cellF(t, r, row, 3)
		if sp <= 1 {
			t.Fatalf("%s: Ristretto geomean speedup %v not > 1", prec, sp)
		}
		if sp <= ns {
			t.Fatalf("%s: sparse Ristretto (%v) not faster than -ns (%v)", prec, sp, ns)
		}
	}
}

func TestFigure13EnergyBelowBitFusion(t *testing.T) {
	b := quickBench()
	r := b.Figure13()
	for i := range r.Rows {
		if e := cellF(t, r, i, 1); e >= 100 {
			t.Fatalf("row %d: Ristretto energy %v%% not below Bit Fusion", i, e)
		}
	}
}

func TestFigure14RistrettoBeatsLaconic(t *testing.T) {
	b := quickBench()
	r := b.Figure14()
	g8 := cellF(t, r, findRow(t, r, "geomean", "8b"), 2)
	g2 := cellF(t, r, findRow(t, r, "geomean", "2b"), 2)
	if g8 <= 1 || g2 <= 1 {
		t.Fatalf("Laconic wins somewhere: 8b=%v 2b=%v", g8, g2)
	}
	if g2 <= g8 {
		t.Fatalf("speedup should grow as precision narrows: 8b=%v 2b=%v", g8, g2)
	}
}

func TestFigure15SparsityScales(t *testing.T) {
	r := NewQuickBench(1, 8).Figure15()
	// Within each sweep, lower density → higher speedup, strictly.
	var prev float64
	for i := 0; i < 5; i++ {
		s := cellF(t, r, i, 3)
		if i > 0 && s <= prev {
			t.Fatalf("atom sweep not monotonic at row %d: %v then %v", i, prev, s)
		}
		prev = s
	}
	prev = 0
	for i := 5; i < 10; i++ {
		s := cellF(t, r, i, 3)
		if i > 5 && s <= prev {
			t.Fatalf("value sweep not monotonic at row %d: %v then %v", i, prev, s)
		}
		prev = s
	}
	// Unlike Laconic, 80% sparsity buys a large (>2.5×) speedup.
	if s := cellF(t, r, 4, 3); s < 2.5 {
		t.Fatalf("atom sparsity speedup %v too small at 0.2 density", s)
	}
}

func TestFigure16EnergyBelowLaconic(t *testing.T) {
	b := quickBench()
	r := b.Figure16()
	for i := range r.Rows {
		if e := cellF(t, r, i, 1); e >= 100 {
			t.Fatalf("row %d: energy %v%% not below Laconic", i, e)
		}
	}
}

func TestFigure17SpeedupGrowsAsPrecisionNarrows(t *testing.T) {
	b := quickBench()
	r := b.Figure17()
	g8 := cellF(t, r, findRow(t, r, "geomean", "8b"), 2)
	g2 := cellF(t, r, findRow(t, r, "geomean", "2b"), 2)
	if g8 <= 1 || g2 <= 1 {
		t.Fatalf("SparTen wins somewhere: 8b=%v 2b=%v", g8, g2)
	}
	if g2 <= g8 {
		t.Fatalf("speedup vs SparTen should grow at low precision: 8b=%v 2b=%v", g8, g2)
	}
}

func TestFigure18BalancingOrdering(t *testing.T) {
	b := quickBench()
	r := b.Figure18()
	none := cellF(t, r, findRow(t, r, "no balancing"), 4)
	wa := cellF(t, r, findRow(t, r, "w/a balancing"), 4)
	if wa > none {
		t.Fatalf("w/a imbalance %v worse than none %v", wa, none)
	}
	if wa > 1.1 {
		t.Fatalf("w/a imbalance %v should be near 1.0", wa)
	}
}

func TestFigure19a(t *testing.T) {
	r := NewBench(1).Figure19a()
	if cellF(t, r, 0, 2) <= cellF(t, r, 1, 2) {
		t.Fatal("1-bit area should exceed 2-bit")
	}
	if cellF(t, r, 2, 2) >= cellF(t, r, 1, 2) {
		t.Fatal("3-bit area should be below 2-bit")
	}
}

func TestFigure19bTwoBitWins(t *testing.T) {
	b := quickBench()
	r := b.Figure19b()
	// Paper: the 2-bit design achieves the highest *average* performance;
	// at 2-bit precision the 1-bit variant may edge ahead (it exploits
	// finer bit sparsity), but pays for it at 8 bits and in area.
	avg := findRow(t, r, "average")
	one, two, three := cellF(t, r, avg, 1), cellF(t, r, avg, 2), cellF(t, r, avg, 3)
	if two <= one || two <= three {
		t.Fatalf("2-bit average (%v) not the best of (1b=%v, 3b=%v)", two, one, three)
	}
	// And 3-bit must lose badly at 2-bit precision (underutilization).
	row2b := findRow(t, r, "2b")
	if cellF(t, r, row2b, 3) >= cellF(t, r, row2b, 2) {
		t.Fatal("3-bit atoms should underperform at 2-bit precision")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "X", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "two,with comma")
	if !strings.Contains(r.String(), "== X: t ==") {
		t.Fatal("String missing header")
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"two,with comma\"") {
		t.Fatalf("CSV escaping wrong: %q", sb.String())
	}
}

func TestBenchCache(t *testing.T) {
	b := quickBench()
	n := b.Networks()[0]
	s1 := b.Stats(n, "4b", 2)
	s2 := b.Stats(n, "4b", 2)
	if &s1[0] != &s2[0] {
		t.Fatal("stats not cached")
	}
	if len(b.Networks()) != 2 {
		t.Fatal("network subset not honoured")
	}
	// A zero-value Bench (the fleet coordinator builds one) works; benches
	// given one store share its statistics, others synthesize for themselves.
	shared := &Bench{Seed: b.Seed, Scale: b.Scale, Store: b.Store}
	if s := shared.Stats(n, "4b", 2); &s[0] != &s1[0] {
		t.Fatal("benches sharing a store synthesized the workload twice")
	}
	own := &Bench{Seed: b.Seed, Scale: b.Scale}
	if s := own.Stats(n, "4b", 2); &s[0] == &s1[0] || !reflect.DeepEqual(s, s1) {
		t.Fatal("a bench without a store must synthesize the same statistics for itself")
	}
}

// TestStatsFailedFillNotStored: a synthesis that fails is never stored, so
// every call for its key fails again instead of answering nil statistics
// that the estimators would turn into zero cycles.
func TestStatsFailedFillNotStored(t *testing.T) {
	b := quickBench()
	n := b.Networks()[0]
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d with an unknown precision returned instead of panicking", i)
				}
			}()
			b.Stats(n, "3b", 2)
		}()
	}
}

// TestFigure1CountsMatchMaterialized pins every Figure 1 cell's zero counts
// against a copy of the loop the figure used before it drew through
// workload.Gen.Normals: a math/rand generator's NormFloat64, and the
// weights and activations of each layer quantized into new slices. The
// goldens pin seed 1's figure; this checks another seed.
func TestFigure1CountsMatchMaterialized(t *testing.T) {
	const seed, maxSamples = 7, 60000
	for _, name := range []string{"AlexNet", "VGG-16", "GoogLeNet", "ResNet-18", "ResNet-50"} {
		for _, bits := range []int{8, 6, 4, 2} {
			n, err := model.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(workload.DeriveSeed(seed, "figure1", name, strconv.Itoa(bits))))
			var want zeroCounts
			for li, l := range n.Layers {
				wn := min(int(l.Weights()), maxSamples)
				an := min(int(l.Activations()), maxSamples)
				jitter := 0.9 + 0.2*float64(int(model.Hash(fmt.Sprintf("%s%d", name, li))%100))/100
				wRaw := make([]float64, wn)
				for i := range wRaw {
					wRaw[i] = rng.NormFloat64()
				}
				aRaw := make([]float64, an)
				for i := range aRaw {
					aRaw[i] = rng.NormFloat64()
				}
				for _, v := range quant.QuantizeSigned(wRaw, 1, quant.Config{Bits: bits, ClipSigma: quant.DefaultWeightClip(bits) * jitter}) {
					if v == 0 {
						want.wZero++
					}
				}
				for _, v := range quant.QuantizeUnsigned(aRaw, 1, quant.Config{Bits: bits, ClipSigma: quant.DefaultActClip(bits) * jitter}) {
					if v == 0 {
						want.aZero++
					}
				}
				want.wTot += wn
				want.aTot += an
			}
			got, err := figure1Counts(seed, name, bits)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d %s %d bits: counts %+v, materialized loop %+v", seed, name, bits, got, want)
			}
		}
	}
}
