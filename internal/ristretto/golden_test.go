package ristretto_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// simCase is one layer run through a cycle simulator for the goldens.
type simCase struct {
	name        string
	f           *tensor.FeatureMap
	w           *tensor.KernelStack
	stride, pad int
	core        ristretto.CoreSimConfig // SimulateCore shape (Trace is set by the test)
	serve       bool                    // a /v1/sim workload: SimulateCore's golden only
}

// synthCase draws a layer with exact value and atom densities.
func synthCase(name string, seed int64, c, h, w, k, ks, abits, wbits int, gran atom.Granularity, stride, pad int, cfg ristretto.CoreSimConfig) simCase {
	g := workload.NewGen(seed)
	cfg.Tile.Gran = gran
	return simCase{
		name:   name,
		f:      g.FeatureMapExact(c, h, w, abits, gran, 0.55, 0.7),
		w:      g.KernelsExact(k, c, ks, ks, wbits, gran, 0.6, 0.7),
		stride: stride, pad: pad, core: cfg,
	}
}

// serveCase builds a /v1/sim request's operands the way the daemon does:
// the scaled layer of a quick bench and the serve-sim seed derivation, on
// the daemon's default shape (8 tiles × 32 multipliers, w/a balancing).
func serveCase(net, layer, prec string, bits int, seed int64, scale int) simCase {
	n, err := model.ByName(net)
	if err != nil {
		panic(err)
	}
	l, err := experiments.NewQuickBench(seed, scale).Scaled(n).Layer(layer)
	if err != nil {
		panic(err)
	}
	g := workload.NewGen(workload.DeriveSeed(seed, "serve-sim", net, layer, prec))
	f, k := g.LayerOperands(l, bits, bits, workload.EvalTargets(net, bits, bits))
	return simCase{
		name: fmt.Sprintf("serve_%s_%s_%s_s%d", net, layer, prec, scale),
		f:    f, w: k, stride: l.Stride, pad: l.Pad, serve: true,
		core: ristretto.CoreSimConfig{Tiles: 8, Tile: ristretto.TileConfig{Mults: 32, Gran: 2}, Policy: balance.WeightAct},
	}
}

// goldenCases spans the simulator parameters the chain, crossbar and drain
// logic branch on: multiplier counts 1, 16, 32, 65 (two mask words) and 1024,
// FIFO depths 1–8, atom sizes 1–3, 2–8-bit operands, spatial tiling,
// stride 2, every balancing policy, non-default load and drain widths, and
// the four sim-serve layer classes at scale 64.
func goldenCases() []simCase {
	type tc = ristretto.TileConfig
	type cc = ristretto.CoreSimConfig
	cases := []simCase{
		synthCase("mults1_depth1", 1, 3, 6, 6, 4, 3, 8, 8, 2, 1, 1, cc{Tiles: 2, Tile: tc{Mults: 1, FIFODepth: 1}}),
		synthCase("mults16_depth3_gran1_4b", 2, 4, 7, 5, 6, 3, 4, 4, 1, 1, 1, cc{Tiles: 3, Tile: tc{Mults: 16, FIFODepth: 3}, Policy: balance.WeightOnly}),
		synthCase("mults32_depth8_gran3", 3, 3, 8, 8, 8, 3, 8, 8, 3, 1, 1, cc{Tiles: 4, Tile: tc{Mults: 32, FIFODepth: 8}, Policy: balance.WeightAct}),
		synthCase("mults65_depth5_5x5", 4, 4, 9, 7, 9, 5, 6, 6, 2, 1, 2, cc{Tiles: 2, Tile: tc{Mults: 65, FIFODepth: 5}, Policy: balance.WeightAct}),
		synthCase("mults1024_depth2", 5, 2, 6, 6, 40, 3, 8, 8, 2, 1, 1, cc{Tiles: 2, Tile: tc{Mults: 1024, FIFODepth: 2}}),
		synthCase("spatial_tiles_stride2", 6, 3, 11, 9, 5, 3, 8, 5, 2, 2, 1, cc{Tiles: 3, Tile: tc{Mults: 8, FIFODepth: 4}, TileW: 4, TileH: 3, Policy: balance.WeightAct}),
		synthCase("stride2_gran1_2b", 7, 2, 10, 10, 4, 3, 2, 2, 1, 2, 0, cc{Tiles: 2, Tile: tc{Mults: 12, FIFODepth: 6}}),
		synthCase("load1_drain2_depth7_3b", 8, 5, 6, 6, 6, 3, 3, 3, 2, 1, 1, cc{Tiles: 4, Tile: tc{Mults: 8, FIFODepth: 7}, LoadWidth: 1, DrainWidth: 2, Policy: balance.WeightAct}),
		synthCase("load3_drain1_single_k", 9, 4, 7, 7, 1, 3, 8, 8, 2, 1, 1, cc{Tiles: 2, Tile: tc{Mults: 16, FIFODepth: 1}, LoadWidth: 3, DrainWidth: 1}),
		synthCase("tile1x1_pointwise", 10, 3, 5, 4, 7, 1, 8, 4, 3, 1, 0, cc{Tiles: 2, Tile: tc{Mults: 5, FIFODepth: 2}, TileW: 1, TileH: 1, Policy: balance.WeightAct}),
		synthCase("banks_depth4_7b", 11, 3, 6, 8, 5, 3, 7, 7, 2, 1, 1, cc{Tiles: 3, Tile: tc{Mults: 24, FIFODepth: 4}, TileW: 5, TileH: 4, LoadWidth: 2, DrainWidth: 16}),
	}
	serve := []struct {
		net, layer, prec string
		bits             int
	}{
		{"ResNet-18", "conv3_2", "8b", 8}, {"ResNet-18", "conv4_2", "4b", 4},
		{"VGG-16", "conv4_1", "2b", 2}, {"AlexNet", "conv3", "4b", 4},
	}
	for _, s := range serve {
		cases = append(cases, serveCase(s.net, s.layer, s.prec, s.bits, 101, 64))
	}
	return cases
}

// digestInt32 is a short SHA-256 over little-endian int32s.
func digestInt32(v []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// digestTrace is a short SHA-256 over the JSONL encoding of the events.
func digestTrace(evs []ristretto.TraceEvent) string {
	h := sha256.New()
	for _, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if string(want) != got {
		t.Fatalf("results drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSimulateCoreGolden pins every field of the whole-core simulator's
// result — cycles, per-tile busy cycles, drain wait, load cycles, stalls,
// work counts, stage cycles, energy counters — plus digests of the output
// map and the full trace event stream, so a change to the chain kernel,
// crossbar, drain or scheduler cannot move a number unnoticed. Run with
// -update-golden only after an intentional model change.
func TestSimulateCoreGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range goldenCases() {
		tr := &ristretto.MemoryTracer{}
		cfg := c.core
		cfg.Trace = tr
		r := ristretto.SimulateCore(c.f, c.w, c.stride, c.pad, cfg)
		fmt.Fprintf(&sb, "%s cycles=%d busy=%v drain_wait=%d load=%d stalls=%d products=%d deliveries=%d conflicts=%d\n",
			c.name, r.Cycles, r.TileBusy, r.DrainWait, r.LoadCycles, r.Stalls, r.Products, r.Deliveries, r.Conflicts)
		fmt.Fprintf(&sb, "  stages=%+v\n  counters=%+v\n", r.Stages, r.Counters)
		fmt.Fprintf(&sb, "  output=%dx%dx%d:%s trace=%d:%s\n",
			r.Output.K, r.Output.H, r.Output.W, digestInt32(r.Output.Data), len(tr.Events), digestTrace(tr.Events))
	}
	checkGolden(t, "simulate_core.golden", sb.String())
}

// TestSimulateConvGolden pins the per-tile simulator the same way, in both
// stream modes: sparse (Ristretto) and dense (Ristretto-ns). The sim-serve
// layers are left to TestSimulateCoreGolden: /v1/sim runs SimulateCore, and
// in dense mode they would make this the slowest test of the package.
func TestSimulateConvGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range goldenCases() {
		if c.serve {
			continue
		}
		for _, dense := range []bool{false, true} {
			r := ristretto.SimulateConv(c.f, c.w, c.stride, c.pad, c.conv(dense))
			fmt.Fprintf(&sb, "%s dense=%t cycles=%d tiles=%v stalls=%d products=%d deliveries=%d conflicts=%d\n",
				c.name, dense, r.Cycles, r.TileCycles, r.Stalls, r.Products, r.Deliveries, r.Conflicts)
			fmt.Fprintf(&sb, "  counters=%+v\n  output=%dx%dx%d:%s\n",
				r.Counters, r.Output.K, r.Output.H, r.Output.W, digestInt32(r.Output.Data))
		}
	}
	checkGolden(t, "simulate_conv.golden", sb.String())
}

// conv is the case's SimulateConv configuration: its core shape, with
// Ristretto-ns streams when dense is set.
func (c simCase) conv(dense bool) ristretto.Config {
	return ristretto.Config{Tiles: c.core.Tiles, Tile: c.core.Tile, TileW: c.core.TileW, TileH: c.core.TileH, Policy: c.core.Policy, Dense: dense}
}

// raceDetector is set under -race (race_test.go). The race detector makes
// the four scale-64 sim-serve layers cost about 20 s over the three worker
// counts of TestSimulateCoreWorkerInvariance, so under -race it keeps to
// the synthetic cases: they drive the same fan-out, per-worker scratches
// and shared-accumulator locks, and the plain run covers the rest.
var raceDetector bool

// TestSimulateCoreWorkerInvariance runs the golden cases at GOMAXPROCS 1, 2
// and 8. SimulateCore and SimulateConv fan their per-channel pass out over
// that many goroutines; neither their results nor SimulateCore's traces may
// depend on how many. SimulateConv runs the cases of its golden, sparse and
// dense.
func TestSimulateCoreWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type run struct {
		res    ristretto.CoreSimResult
		events []ristretto.TraceEvent
		conv   [2]ristretto.SimResult // sparse, dense; zero on the sim-serve cases
	}
	var cases []simCase
	for _, c := range goldenCases() {
		if !c.serve || !raceDetector {
			cases = append(cases, c)
		}
	}
	var serial []run
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			tr := &ristretto.MemoryTracer{}
			cfg := c.core
			cfg.Trace = tr
			got := run{res: ristretto.SimulateCore(c.f, c.w, c.stride, c.pad, cfg), events: tr.Events}
			if !c.serve {
				for d, dense := range []bool{false, true} {
					got.conv[d] = ristretto.SimulateConv(c.f, c.w, c.stride, c.pad, c.conv(dense))
				}
			}
			if procs == 1 {
				serial = append(serial, got)
				continue
			}
			want := serial[i]
			if !got.res.Output.Equal(want.res.Output) {
				t.Fatalf("%s: output at GOMAXPROCS %d differs from GOMAXPROCS 1", c.name, procs)
			}
			for d := range got.conv {
				if g, w := got.conv[d], want.conv[d]; !reflect.DeepEqual(g, w) {
					t.Fatalf("%s dense=%t: SimulateConv at GOMAXPROCS %d: cycles=%d tiles=%v stalls=%d; GOMAXPROCS 1: cycles=%d tiles=%v stalls=%d (outputs equal: %t)",
						c.name, d == 1, procs, g.Cycles, g.TileCycles, g.Stalls, w.Cycles, w.TileCycles, w.Stalls, g.Output.Equal(w.Output))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: GOMAXPROCS %d: cycles=%d busy=%v drain_wait=%d, %d events; GOMAXPROCS 1: cycles=%d busy=%v drain_wait=%d, %d events",
					c.name, procs, got.res.Cycles, got.res.TileBusy, got.res.DrainWait, len(got.events),
					want.res.Cycles, want.res.TileBusy, want.res.DrainWait, len(want.events))
			}
		}
	}
}

// TestChunkPathsOnServeLayer runs the operands of core/sim_serve_layer (the
// daemon's default /v1/sim layer, ResNet-18 conv4_2 at 4 bits and scale 16)
// chunk by chunk through the kernel's entry point and through the stepped
// loop. Both paths must be taken, and each chunk's results must agree.
func TestChunkPathsOnServeLayer(t *testing.T) {
	c := serveCase("ResNet-18", "conv4_2", "4b", 4, 1, 16)
	closed, stepped, err := ristretto.CompareChunkPaths(c.f, c.w, c.core)
	if err != nil {
		t.Fatal(err)
	}
	if closed == 0 || stepped == 0 {
		t.Fatalf("%d chunks in closed form, %d stepped: want both paths taken", closed, stepped)
	}
	t.Logf("%d chunks in closed form, %d stepped", closed, stepped)
}
