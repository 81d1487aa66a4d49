package workload_test

import (
	"reflect"
	"runtime"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// statsPrev is StatsFromTensors as it was before the histogram rewrite: one
// pass per statistic over the materialized operands.
func statsPrev(l model.Layer, f *tensor.FeatureMap, k *tensor.KernelStack, gran atom.Granularity, booth bool) workload.LayerStats {
	s := workload.LayerStats{
		Layer: l, WBits: k.Bits, ABits: f.Bits, Gran: gran,
		ActAtomsPerChan: make([]int, l.C),
		WAtomsPerChan:   make([]int, l.C),
		ActNZPerChan:    make([]int, l.C),
		WNZPerChan:      make([]int, l.C),
		WNZPerFilter:    make([]int, l.K),
		WAtomsPerFilter: make([]int, l.K),
	}
	s.A = quant.Measure(f.Data, f.Bits, gran)
	s.W = quant.Measure(k.Data, k.Bits, gran)
	for c := 0; c < l.C; c++ {
		for _, v := range f.Channel(c) {
			if v != 0 {
				s.ActNZPerChan[c]++
				s.ActAtomsPerChan[c] += atom.CountNonZero(v, f.Bits, gran)
			}
		}
	}
	for kk := 0; kk < k.K; kk++ {
		for c := 0; c < k.C; c++ {
			for y := 0; y < k.KH; y++ {
				for x := 0; x < k.KW; x++ {
					if v := k.At(kk, c, y, x); v != 0 {
						na := atom.CountNonZero(v, k.Bits, gran)
						s.WNZPerChan[c]++
						s.WAtomsPerChan[c] += na
						s.WNZPerFilter[kk]++
						s.WAtomsPerFilter[kk] += na
					}
				}
			}
		}
	}
	s.ATermHist = atom.TermHistogram(f.Data, booth)
	s.WTermHist = atom.TermHistogram(k.Data, booth)
	return s
}

// raceDetector is set under -race. The oracle below is single-goroutine
// arithmetic the detector has nothing to check in but slows down ~8×, so a
// -race run measures each workload only the Bench.Stats way (2-bit atoms,
// NAF terms); a plain `go test` covers every combination.
var raceDetector bool

type measure struct {
	gran  atom.Granularity
	booth bool
}

func measures() []measure {
	if raceDetector {
		return []measure{{2, true}}
	}
	var ms []measure
	for _, gran := range []atom.Granularity{1, 2, 3} {
		for _, booth := range []bool{true, false} {
			ms = append(ms, measure{gran, booth})
		}
	}
	return ms
}

// TestNetworkStatsMatchesMaterializedOperands pins the drawn path against
// the materialized one. For every benchmark network and precision at scale
// 64, and every atom granularity and term encoding, NetworkStats must equal
// LayerOperands + StatsFromTensors layer by layer from the same seed. The
// operands do not depend on the granularity or the encoding, so each layer
// is materialized once and measured six ways.
func TestNetworkStatsMatchesMaterializedOperands(t *testing.T) {
	b := experiments.NewQuickBench(1, 64)
	for _, n := range model.Benchmark() {
		t.Run(n.Name, func(t *testing.T) {
			t.Parallel()
			sn := b.Scaled(n)
			precs := map[string]model.Precision{
				"8b": model.Uniform(sn, 8), "4b": model.Uniform(sn, 4),
				"2b": model.Uniform(sn, 2), "mix2/4": model.Mixed24(sn, 1),
			}
			for name, p := range precs {
				seed := workload.DeriveSeed(1, n.Name, name)
				want := make([][]workload.LayerStats, len(measures()))
				g := workload.NewGen(seed)
				for i, l := range sn.Layers {
					f, k := g.LayerOperands(l, p.WBits[i], p.ABits[i], workload.EvalTargets(sn.Name, p.WBits[i], p.ABits[i]))
					for j, m := range measures() {
						want[j] = append(want[j], workload.StatsFromTensors(l, f, k, m.gran, m.booth))
					}
				}
				for j, m := range measures() {
					got := workload.NewGen(seed).NetworkStats(sn, p, m.gran, m.booth)
					for i := range got {
						if !reflect.DeepEqual(got[i], want[j][i]) {
							t.Fatalf("%s gran %d booth %v layer %s: NetworkStats\n%+v\nmaterialized\n%+v",
								name, m.gran, m.booth, sn.Layers[i].Name, got[i], want[j][i])
						}
					}
				}
			}
		})
	}
}

// TestNetworkStatsWorkerInvariance runs the scale-64 matrix of
// TestNetworkStatsMatchesMaterializedOperands at one, two, three and eight
// CPUs: the synthesis pipeline and the meter split the work across up to
// GOMAXPROCS goroutines, and the statistics must not depend on how many.
// A -race run checks one precision per network.
func TestNetworkStatsWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	b := experiments.NewQuickBench(1, 64)
	for _, n := range model.Benchmark() {
		sn := b.Scaled(n)
		precs := map[string]model.Precision{
			"8b": model.Uniform(sn, 8), "4b": model.Uniform(sn, 4),
			"2b": model.Uniform(sn, 2), "mix2/4": model.Mixed24(sn, 1),
		}
		for name, p := range precs {
			if raceDetector && name != "4b" {
				continue
			}
			seed := workload.DeriveSeed(1, n.Name, name)
			var want []workload.LayerStats
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				got := workload.NewGen(seed).NetworkStats(sn, p, 2, true)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: NetworkStats at GOMAXPROCS %d differs from GOMAXPROCS 1", n.Name, name, procs)
				}
			}
		}
	}
}

// TestStatsFromTensorsMatchesPerValueCounting checks the histogram
// derivation against per-value counting on materialized layers, including
// 16-bit ones, widened from 8-bit draws, whose magnitudes run past the
// 256-entry tables, and checks that LayerStats draws the same layer at
// the widths synthesis serves.
func TestStatsFromTensorsMatchesPerValueCounting(t *testing.T) {
	layers := []model.Layer{
		{Name: "conv", C: 6, H: 9, W: 7, K: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Name: "pointwise", C: 16, H: 4, W: 4, K: 8, KH: 1, KW: 1, Stride: 1},
		{Name: "wide", C: 3, H: 12, W: 12, K: 4, KH: 5, KW: 5, Stride: 2, Pad: 2},
	}
	for _, l := range layers {
		for _, bits := range []int{2, 4, 8, 16} {
			tg := workload.Targets{WDensity: 0.45, ADensity: 0.4}
			f, k := workload.NewGen(9).LayerOperands(l, min(bits, 8), min(bits, 8), tg)
			if bits == 16 {
				f, k = widen(f, k)
				if maxMag(f.Data) < 256 && maxMag(k.Data) < 256 {
					t.Fatalf("%s: 16-bit operands never pass 255, the fallback goes untested", l.Name)
				}
			}
			for _, m := range measures() {
				want := statsPrev(l, f, k, m.gran, m.booth)
				if got := workload.StatsFromTensors(l, f, k, m.gran, m.booth); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %db gran %d booth %v: StatsFromTensors\n%+v\nper-value\n%+v", l.Name, bits, m.gran, m.booth, got, want)
				}
				if bits == 16 {
					continue // synthesis draws 2 to 8 bits
				}
				if got := workload.NewGen(9).LayerStats(l, bits, bits, m.gran, tg, m.booth); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %db gran %d booth %v: LayerStats\n%+v\nper-value\n%+v", l.Name, bits, m.gran, m.booth, got, want)
				}
			}
		}
	}
}

// widen returns 16-bit copies of f and k with every value times 257, which
// spreads 8-bit magnitudes over 16 bits (255 to 65535).
func widen(f *tensor.FeatureMap, k *tensor.KernelStack) (*tensor.FeatureMap, *tensor.KernelStack) {
	wf, wk := tensor.NewFeatureMap(f.C, f.H, f.W, 16), tensor.NewKernelStack(k.K, k.C, k.KH, k.KW, 16)
	for i, v := range f.Data {
		wf.Data[i] = 257 * v
	}
	for i, v := range k.Data {
		wk.Data[i] = 257 * v
	}
	return wf, wk
}

func maxMag(data []int32) int32 {
	var m int32
	for _, v := range data {
		m = max(m, v, -v)
	}
	return m
}
