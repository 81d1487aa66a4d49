// Command ristretto-trace runs a layer on the whole-core cycle simulator
// and writes a JSONL execution trace (job/chunk/drain transitions per
// compute tile, in cycle order) for offline analysis or visualization.
//
// Usage:
//
//	ristretto-trace -synth [-out trace.jsonl]      # small synthetic layer
//	ristretto-trace -acts zoo/conv3_2.acts.rstt -weights zoo/conv3_2.weights.rstt [-out trace.jsonl]
//
// Input is either -synth (a small synthetic layer controlled by -seed,
// default 1) or a pair of .rstt tensor files exported by ristretto-model
// (-acts + -weights). Simulator shape flags and their defaults: -tiles 4,
// -mults 16, -gran 2, -stride 1, -pad 1. The trace is written to -out
// (default "trace.jsonl"), one TraceEvent JSON object per line:
// {"cycle":..,"tile":..,"event":"chunk_start",...}. README.md's Tools
// section documents the same flag set; keep the two in sync.
package main

import (
	"flag"
	"fmt"
	"os"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/modelio"
	"ristretto/internal/ristretto"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

func main() {
	actsPath := flag.String("acts", "", "feature-map .rstt file (from ristretto-model)")
	weightsPath := flag.String("weights", "", "kernel-stack .rstt file (from ristretto-model)")
	synth := flag.Bool("synth", false, "use a small synthetic layer instead of files")
	out := flag.String("out", "trace.jsonl", "JSONL trace output path")
	tiles := flag.Int("tiles", 4, "compute tiles")
	mults := flag.Int("mults", 16, "multipliers per tile")
	gran := flag.Int("gran", 2, "atom granularity in bits (1-3)")
	stride := flag.Int("stride", 1, "convolution stride")
	pad := flag.Int("pad", 1, "convolution padding")
	seed := flag.Int64("seed", 1, "synthetic workload seed (with -synth)")
	version := flag.Bool("version", false, "print version and VCS info, then exit")
	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("ristretto-trace"))
		return
	}

	if *gran < 1 || *gran > 3 {
		fatal(fmt.Errorf("invalid -gran %d (allowed: 1, 2, 3)", *gran))
	}
	if *tiles < 1 {
		fatal(fmt.Errorf("invalid -tiles %d: must be >= 1", *tiles))
	}
	if *mults < 1 {
		fatal(fmt.Errorf("invalid -mults %d: must be >= 1", *mults))
	}
	if *stride < 1 {
		fatal(fmt.Errorf("invalid -stride %d: must be >= 1", *stride))
	}
	if *pad < 0 {
		fatal(fmt.Errorf("invalid -pad %d: must be >= 0", *pad))
	}

	var f *tensor.FeatureMap
	var w *tensor.KernelStack
	var err error
	switch {
	case *synth:
		g := workload.NewGen(*seed)
		f = g.FeatureMap(4, 12, 12, 8, 0.5)
		w = g.Kernels(8, 4, 3, 3, 4, 0.5)
	case *actsPath != "" && *weightsPath != "":
		if f, err = modelio.LoadFeatureMap(*actsPath); err != nil {
			fatal(err)
		}
		if w, err = modelio.LoadKernelStack(*weightsPath); err != nil {
			fatal(err)
		}
		if f.C != w.C {
			fatal(fmt.Errorf("channel mismatch: acts %d vs weights %d", f.C, w.C))
		}
		// The simulator runs the whole plane as one spatial tile, and its
		// atoms carry 8-bit tile and kernel coordinates and a 16-bit output
		// channel.
		if max(f.H, f.W, w.KH, w.KW) > 256 || w.K > 1<<16 {
			fatal(fmt.Errorf("%dx%d plane, %d output channels of %dx%d kernels: the simulator takes planes and kernels of at most 256x256 and at most 65536 output channels",
				f.H, f.W, w.K, w.KH, w.KW))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	fh, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	tracer := &ristretto.JSONTracer{W: fh}
	cfg := ristretto.CoreSimConfig{
		Tiles:  *tiles,
		Tile:   ristretto.TileConfig{Mults: *mults, Gran: atom.Granularity(*gran)},
		Policy: balance.WeightAct,
		Trace:  tracer,
	}
	res := ristretto.SimulateCore(f, w, *stride, *pad, cfg)
	if err := fh.Close(); err != nil {
		fatal(err)
	}
	if tracer.Err() != nil {
		fatal(tracer.Err())
	}
	fmt.Printf("input   : %v\n", f)
	fmt.Printf("kernels : %v\n", w)
	fmt.Printf("cycles  : %d (stalls %d, drain-wait %d, weight-load %d)\n",
		res.Cycles, res.Stalls, res.DrainWait, res.LoadCycles)
	for i, b := range res.TileBusy {
		fmt.Printf("  tile %d busy %5.1f%%\n", i, 100*float64(b)/float64(res.Cycles))
	}
	fmt.Printf("trace   : %s (%d events)\n", *out, tracer.Events())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ristretto-trace:", err)
	os.Exit(1)
}
