package workload

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ristretto/internal/atom"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/runner"
)

// weightsPrev is the weight path as it was before the pipeline, serial on
// math/rand: each weight drawn, quantized and histogrammed in turn, the
// codes pruned in place, then metered by meterWeightsPrev.
func weightsPrev(rng *rand.Rand, l model.Layer, bits int, wDensity float64, gran atom.Granularity) ([]int32, *meter) {
	q := weightQuantizer(bits)
	codes := make([]int32, l.Weights())
	hist := make([]int, q.MaxCode()+1)
	for i := range codes {
		v := q.Code(rng.NormFloat64())
		codes[i] = v
		hist[atom.Magnitude(v)]++
	}
	t, surplus := quant.PruneHist(hist, wDensity)
	quant.PruneAt(codes, t, surplus)
	m := newMeter(l, bits, bits, gran)
	meterWeightsPrev(m, codes, hist)
	return codes, m
}

// meterWeightsPrev is meter.weights as it was before the pipeline: one
// serial pass over pruned codes through one table.
func meterWeightsPrev(m *meter, codes []int32, hist []int) {
	m.wHist = hist
	tab := make([]uint64, len(hist))
	for mag := 1; mag < len(tab); mag++ {
		tab[mag] = 1<<32 | uint64(atom.CountNonZero(int32(mag), m.s.WBits, m.s.Gran))
	}
	l := m.s.Layer
	area := l.KH * l.KW
	perChan := make([]uint64, l.C)
	for k := range m.s.WNZPerFilter {
		var sum uint64
		for c := range perChan {
			var s uint64
			for _, v := range codes[(k*l.C+c)*area : (k*l.C+c+1)*area] {
				s += tab[atom.Magnitude(v)]
			}
			perChan[c] += s
			sum += s
		}
		m.s.WNZPerFilter[k], m.s.WAtomsPerFilter[k] = unpack(sum)
	}
	for c, s := range perChan {
		m.s.WNZPerChan[c], m.s.WAtomsPerChan[c] = unpack(s)
	}
}

// pruning is where one checkDrawWeights case's pruning fell.
type pruning struct{ t, surplus, cut, chunk int }

// checkDrawWeights draws l's weights through drawWeights in chunks of
// chunk values and meters them through their pruning threshold on one
// goroutine, then
// requires the histogram, every per-channel and per-filter count, the
// codes quant.PruneAt leaves and the stream position after the draw to
// equal weightsPrev's from the same seed. The chunk-read tie cut must
// equal quant.TieCut's scan from index 0.
func checkDrawWeights(t *testing.T, seed int64, l model.Layer, bits int, wDensity float64, gran atom.Granularity, chunk int) pruning {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	wantCodes, want := weightsPrev(ref, l, bits, wDensity, gran)

	g := NewGen(seed)
	codes := make([]int32, l.Weights())
	w := g.drawWeights(codes, bits, wDensity, chunk)
	hist, wt, surplus, cut := w.hist, w.t, w.surplus, w.cut
	if scan := quant.TieCut(codes, wt, surplus); cut != scan {
		t.Fatalf("%+v %db density %v chunk %d: tie cut %d, scan from 0 says %d", l, bits, wDensity, chunk, cut, scan)
	}
	m := newMeter(l, bits, bits, gran)
	m.prune(hist, wt, cut, 1)
	filters(m, codes, 0, l.K, 0)
	m.merge()
	if !reflect.DeepEqual(m.s, want.s) || !reflect.DeepEqual(m.wHist, want.wHist) {
		t.Fatalf("%+v %db density %v chunk %d (t %d, surplus %d, cut %d): meter\n%+v %v\nserial path\n%+v %v",
			l, bits, wDensity, chunk, wt, surplus, cut, m.s, m.wHist, want.s, want.wHist)
	}
	quant.PruneAt(codes, wt, surplus)
	if !slices.Equal(codes, wantCodes) {
		t.Fatalf("%+v %db density %v chunk %d: pruned codes differ from the serial path's", l, bits, wDensity, chunk)
	}
	if got, want := g.rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("%+v %db density %v chunk %d: stream out of step after the draw", l, bits, wDensity, chunk)
	}
	return pruning{wt, surplus, cut, chunk}
}

// TestDrawWeightsMatchesSerial runs the pipeline oracle at one, two and
// eight CPUs over small chunk lengths, with layers shorter than a chunk,
// of exactly one, and of k chunks ± 1, and requires the cases to cover
// every pruning shape: nothing pruned (t = 0), a threshold without ties
// kept (surplus = 0), and the surplus-th tie first or last in its chunk.
func TestDrawWeightsMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var noPrune, noTies, tieFirst, tieLast bool
	seed := int64(0)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, chunk := range []int{1, 2, 3, 7, 16, 64} {
			layers := []model.Layer{{K: 6, C: 5, KH: 3, KW: 3}, {K: 16, C: 9, KH: 1, KW: 1}}
			for _, n := range []int{chunk - 1, chunk, chunk + 1, 2*chunk - 1, 2 * chunk, 2*chunk + 1, 5*chunk - 1, 5*chunk + 1} {
				if n > 0 {
					layers = append(layers, model.Layer{K: n, C: 1, KH: 1, KW: 1})
				}
			}
			for _, l := range layers {
				for _, d := range []float64{1, 0.9, 0.45, 0.1, 0} {
					for _, bits := range []int{2, 4, 8} {
						seed++
						p := checkDrawWeights(t, seed, l, bits, d, atom.Granularity(1+seed%3), chunk)
						noPrune = noPrune || p.t == 0
						noTies = noTies || p.t > 0 && p.surplus == 0
						tieFirst = tieFirst || p.surplus > 0 && p.chunk > 1 && (p.cut-1)%p.chunk == 0
						tieLast = tieLast || p.surplus > 0 && p.chunk > 1 && p.cut%p.chunk == 0
					}
				}
			}
		}
	}
	if !noPrune || !noTies || !tieFirst || !tieLast {
		t.Fatalf("cases missed a pruning shape: t=0 %v, surplus=0 %v, tie first in chunk %v, tie last in chunk %v",
			noPrune, noTies, tieFirst, tieLast)
	}
}

// FuzzDrawWeights runs the pipeline oracle of checkDrawWeights over fuzzed
// seeds, layer shapes, bit-widths, densities, granularities and chunk
// lengths.
func FuzzDrawWeights(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(6), uint8(9), uint8(4), uint16(30000), uint8(7))
	f.Add(int64(-7), uint8(31), uint8(1), uint8(1), uint8(2), uint16(0), uint8(1))
	f.Add(int64(1<<40), uint8(3), uint8(17), uint8(3), uint8(8), uint16(65535), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, k, c, kw, bits uint8, density uint16, chunk uint8) {
		l := model.Layer{K: 1 + int(k)%32, C: 1 + int(c)%32, KH: 1 + int(kw)%3, KW: 1 + int(kw)%5}
		b := 2 + int(bits)%7
		gran := atom.Granularity(1 + int(bits/7)%3)
		checkDrawWeights(t, seed, l, b, float64(density)/65535, gran, 1+int(chunk)%64)
	})
}

// TestPipelinePanicReachesCaller checks that a panic in a synthesis job is
// re-raised on the caller's goroutine once the workers have stopped, so
// the runner's per-cell recover records a CellError — what a cold
// /v1/model answers 500 from — instead of the unrecovered panic killing
// the process, and that no goroutine the call started outlives it. The
// cases run at GOMAXPROCS 1, 2 and 3: a chunk job that panics coding the
// last chunk of the second layer, whose codes are one short, and a meter
// job of the first layer, whose per-filter counts are missing, which runs
// while the caller walks the layers after it.
func TestPipelinePanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	layers := []model.Layer{
		{K: 96, C: 64, KH: 3, KW: 3}, {K: 64, C: 32, KH: 5, KW: 5},
		{K: 128, C: 64, KH: 1, KW: 1}, {K: 64, C: 64, KH: 3, KW: 3},
	}
	weights := func() []*weightDraw {
		ws := make([]*weightDraw, len(layers))
		for i, l := range layers {
			ws[i] = &weightDraw{tab: weightTable(4), density: 0.4, n: int(l.Weights()), m: newMeter(l, 4, 4, 2)}
		}
		return ws
	}
	runs := []struct {
		name, want string
		run        func()
	}{
		{"chunk job", "out of range", func() {
			ws := weights()
			ws[1].m, ws[1].codes = nil, make([]int32, ws[1].n-1)
			NewGen(1).synthesize(ws, 1000, nil)
		}},
		{"meter job", "out of range", func() {
			ws := weights()
			ws[0].m.s.WNZPerFilter = nil
			NewGen(1).synthesize(ws, 1000, nil)
		}},
	}
	for _, r := range runs {
		for _, workers := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(workers)
			before := runtime.NumGoroutine()
			_, err := runner.MapCfg(context.Background(), runner.Serial(), runner.Cfg{}, 1, func(int) (struct{}, error) {
				r.run()
				return struct{}{}, nil
			})
			ces := runner.AsCellErrors(err)
			if len(ces) != 1 || ces[0].Stack == nil || !strings.Contains(ces[0].Error(), r.want) {
				t.Fatalf("%s, %d workers: want one recovered-panic CellError naming the worker's panic, got %v", r.name, workers, err)
			}
			// A worker that has called wg.Done may still be returning.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%s, %d workers: %d goroutines after the call, %d before", r.name, workers, n, before)
			}
		}
	}
}

// TestNetworkPipelineMatchesLayers checks the cross-layer hand-offs of the
// synthesis pipeline: the slots layers take in turn, and the meter that
// runs while the caller walks the next layer. On a hand-built network of
// one- and multi-chunk layers with 1x1, 3x3 and 5x5 kernels, whose widths
// change from layer to layer (so consecutive layers use different code
// tables and histogram sizes), NetworkStats must equal the same layers
// drawn one at a time through LayerStats on one generator, at GOMAXPROCS
// 1, 2, 3 and 8.
func TestNetworkPipelineMatchesLayers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n := &model.Network{Name: "hand-built", Layers: []model.Layer{
		{Name: "a", C: 16, H: 8, W: 8, K: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},  // one chunk
		{Name: "b", C: 64, H: 8, W: 8, K: 96, KH: 3, KW: 3, Stride: 1, Pad: 1},  // four
		{Name: "c", C: 96, H: 6, W: 6, K: 128, KH: 1, KW: 1, Stride: 1},         // one
		{Name: "d", C: 32, H: 9, W: 9, K: 64, KH: 5, KW: 5, Stride: 1, Pad: 2},  // four
		{Name: "e", C: 64, H: 7, W: 7, K: 128, KH: 3, KW: 3, Stride: 1, Pad: 1}, // five
		{Name: "f", C: 128, H: 4, W: 4, K: 256, KH: 1, KW: 1, Stride: 1},        // two
	}}
	p := model.Precision{WBits: []int{2, 4, 8, 2, 8, 4}, ABits: []int{8, 2, 4, 4, 2, 8}}
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			for seed := int64(1); seed <= 3; seed++ {
				got, g := NewGen(seed).NetworkStats(n, p, 2, true), NewGen(seed)
				for i, l := range n.Layers {
					want := g.LayerStats(l, p.WBits[i], p.ABits[i], 2, EvalTargets(n.Name, p.WBits[i], p.ABits[i]), true)
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("seed %d layer %s: NetworkStats\n%+v\nLayerStats\n%+v", seed, l.Name, got[i], want)
					}
				}
			}
		})
	}
}
