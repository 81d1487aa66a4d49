package ristretto_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ristretto/internal/balance"
	"ristretto/internal/refconv"
	"ristretto/internal/ristretto"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// splitCases are the layers of the prepare/run check: the golden cases,
// the four sim-serve classes among them, each on its own spatial tiling
// and on 3×3 spatial tiles. Under -race the sim-serve classes are left out
// (see raceDetector).
func splitCases() []simCase {
	var out []simCase
	for _, c := range goldenCases() {
		if c.serve && raceDetector {
			continue
		}
		out = append(out, c)
		c.name += "_3x3"
		c.core.TileW, c.core.TileH = 3, 3
		out = append(out, c)
	}
	return out
}

// TestPrepareThenRunMatchesSimulateCore prepares each layer once and runs
// the per-shape step at 1, 5, 8 and 16 compute tiles under every policy:
// each result must equal a fresh SimulateCore of that shape in every
// field, the output and every trace event.
func TestPrepareThenRunMatchesSimulateCore(t *testing.T) {
	for _, c := range splitCases() {
		tr := &ristretto.MemoryTracer{}
		cfg := c.core
		cfg.Trace = tr
		l := ristretto.PrepareCore(c.f, c.w, c.stride, c.pad, cfg)
		for _, tiles := range []int{1, 5, 8, 16} {
			for _, policy := range []balance.Policy{balance.None, balance.WeightOnly, balance.WeightAct} {
				name := fmt.Sprintf("%s tiles=%d %v", c.name, tiles, policy)
				tr.Events = nil
				got := l.Run(tiles, policy)
				want := &ristretto.MemoryTracer{}
				cfg.Tiles, cfg.Policy, cfg.Trace = tiles, policy, want
				ref := ristretto.SimulateCore(c.f, c.w, c.stride, c.pad, cfg)
				cfg.Trace = tr
				if !got.Output.Equal(ref.Output) {
					t.Fatalf("%s: output differs from SimulateCore's", name)
				}
				got.Output, ref.Output = nil, nil
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s:\nrun         %+v\nSimulateCore %+v", name, got, ref)
				}
				if !slices.Equal(tr.Events, want.Events) {
					for i := range min(len(tr.Events), len(want.Events)) {
						if tr.Events[i] != want.Events[i] {
							t.Fatalf("%s: trace event %d is %+v, SimulateCore's %+v", name, i, tr.Events[i], want.Events[i])
						}
					}
					t.Fatalf("%s: %d trace events, SimulateCore %d", name, len(tr.Events), len(want.Events))
				}
			}
		}
	}
}

// TestConcurrentRunsShareLayer runs the per-shape step of every shape on one
// prepared layer from many goroutines at once: Run only reads the layer,
// so each result must equal the same shape's run alone. Run it under
// -race.
func TestConcurrentRunsShareLayer(t *testing.T) {
	c := serveCase("AlexNet", "conv3", "4b", 4, 1, 64)
	c.core.TileW, c.core.TileH = 3, 3
	l := ristretto.PrepareCore(c.f, c.w, c.stride, c.pad, c.core)
	type shape struct {
		tiles  int
		policy balance.Policy
	}
	var shapes []shape
	want := map[shape]ristretto.CoreSimResult{}
	for _, tiles := range []int{1, 5, 8, 16} {
		for _, policy := range []balance.Policy{balance.None, balance.WeightOnly, balance.WeightAct} {
			sh := shape{tiles, policy}
			shapes = append(shapes, sh)
			want[sh] = l.Run(tiles, policy)
		}
	}
	got := make([]ristretto.CoreSimResult, 4*len(shapes))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := shapes[i%len(shapes)]
			got[i] = l.Run(sh.tiles, sh.policy)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if sh := shapes[i%len(shapes)]; !reflect.DeepEqual(r, want[sh]) {
			t.Fatalf("concurrent run %d (%+v): %+v, alone %+v", i, sh, r, want[sh])
		}
	}
}

// TestPreparedLayersShareScratches prepares two layers back to back, three
// times over, at GOMAXPROCS 2, each with more input channels than
// workers, so every pass takes the scratches the one before it pooled.
// One layer is a single spatial tile, where a worker's banks are flushed
// once, after its last channel; the other has 3×2 spatial tiles, where
// they are flushed whenever the worker moves to another tile. Both outputs
// must equal refconv's: a scratch pooled with unflushed banks, or banks
// flushed twice, would break that.
func TestPreparedLayersShareScratches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := workload.NewGen(61)
	tile := ristretto.TileConfig{Mults: 8, Gran: 2}
	layers := []struct {
		name string
		f    *tensor.FeatureMap
		w    *tensor.KernelStack
		cfg  ristretto.CoreSimConfig
	}{
		{"one_tile", g.FeatureMap(7, 6, 6, 8, 0.6), g.Kernels(5, 7, 3, 3, 8, 0.6), ristretto.CoreSimConfig{Tile: tile}},
		{"3x2_tiles", g.FeatureMap(5, 8, 7, 8, 0.6), g.Kernels(9, 5, 3, 3, 4, 0.5), ristretto.CoreSimConfig{Tile: tile, TileW: 3, TileH: 2}},
	}
	for pass := range 3 {
		for _, l := range layers {
			got := ristretto.PrepareCore(l.f, l.w, 1, 1, l.cfg).Run(4, balance.WeightAct)
			if !got.Output.Equal(refconv.Conv(l.f, l.w, 1, 1)) {
				t.Fatalf("pass %d, %s: output differs from refconv", pass, l.name)
			}
		}
	}
}
