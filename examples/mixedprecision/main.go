// Mixed-precision network sweep: estimate ResNet-18 inference across
// quantization settings on every accelerator in the table (Ristretto, its
// sparsity-disabled variant, and all baselines) — the workload the
// paper's introduction motivates (mixed-precision quantized models with
// dual-sided irregular sparsity).
//
//	go run ./examples/mixedprecision
package main

import (
	"fmt"

	"ristretto/internal/accel"
	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/experiments"
	"ristretto/internal/ristretto"
)

func main() {
	b := experiments.NewQuickBench(7, 2) // half-scale spatial dims for a fast demo
	b.Nets = []string{"ResNet-18"}
	n := b.Networks()[0]
	rcfg := ristretto.Config{Tiles: 32, Tile: ristretto.TileConfig{Mults: 16, Gran: 2}, Policy: balance.WeightAct}

	fmt.Printf("ResNet-18 (%d conv layers), synthetic quantized+pruned operands, 500 MHz\n\n", len(n.Layers))
	fmt.Printf("%-8s %-12s %14s %12s %12s\n", "prec", "accelerator", "cycles", "ms", "energy mJ")
	for _, prec := range experiments.PrecisionNames {
		stats := b.Stats(n, prec, atom.Granularity(2))
		for _, a := range accel.All() {
			perf := a.Estimate(stats, rcfg)
			print(prec, a.Name, perf.Cycles, a.Energy(rcfg).TotalPJ(perf.Counters))
		}
		fmt.Println()
	}
	fmt.Println("(half-scale spatial dims; run cmd/ristretto-bench -scale 1 for paper-scale figures)")
}

func print(prec, accel string, cycles int64, pj float64) {
	fmt.Printf("%-8s %-12s %14d %12.3f %12.3f\n", prec, accel, cycles, float64(cycles)/500e6*1e3, pj/1e9)
}
