// Command ristretto-quant runs the statistical quantization study behind
// Figure 1: it quantizes synthetic Gaussian weight and rectified-Gaussian
// activation populations at several bit-widths and reports value- and
// atom-level sparsity, plus the condensed stream lengths a layer would
// produce.
//
// Usage:
//
//	ristretto-quant [-n 1000000] [-gran 2] [-seed 1] [-prune-w 0] [-prune-a 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"ristretto/internal/atom"
	"ristretto/internal/quant"
	"ristretto/internal/telemetry"
)

func main() {
	n := flag.Int("n", 1_000_000, "samples per population")
	gran := flag.Int("gran", 2, "atom granularity in bits (1-3)")
	seed := flag.Int64("seed", 1, "rng seed")
	pruneW := flag.Float64("prune-w", 0, "additionally prune weights to this density (0 = off)")
	pruneA := flag.Float64("prune-a", 0, "additionally prune activations to this density (0 = off)")
	version := flag.Bool("version", false, "print version and VCS info, then exit")
	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("ristretto-quant"))
		return
	}

	if *n < 1 {
		fatal(fmt.Errorf("invalid -n %d: must be >= 1", *n))
	}
	if *gran < 1 || *gran > 3 {
		fatal(fmt.Errorf("invalid -gran %d (allowed: 1, 2, 3)", *gran))
	}
	if *pruneW < 0 || *pruneW > 1 {
		fatal(fmt.Errorf("invalid -prune-w %v: must be in [0, 1]", *pruneW))
	}
	if *pruneA < 0 || *pruneA > 1 {
		fatal(fmt.Errorf("invalid -prune-a %v: must be in [0, 1]", *pruneA))
	}

	fmt.Printf("%4s  %-10s %14s %14s %14s %14s\n", "bits", "operand", "value sparsity", "atom density", "atoms/value", "stream vs dense")
	for _, row := range quant.Sweep(*n, *seed, []int{8, 6, 4, 2}, atom.Granularity(*gran), *pruneW, *pruneA) {
		for _, op := range []struct {
			name string
			s    quant.Stats
		}{{"weight", row.Weights}, {"activation", row.Acts}} {
			s := op.s
			atomsPerVal := 0.0
			if s.NonZero > 0 {
				atomsPerVal = float64(s.NonZeroAtoms) / float64(s.NonZero)
			}
			fmt.Printf("%4d  %-10s %13.2f%% %13.2f%% %14.2f %13.2f%%\n",
				row.Bits, op.name, 100*s.Sparsity(), 100*s.AtomDensity, atomsPerVal,
				100*float64(s.NonZeroAtoms)/float64(s.DenseAtoms))
		}
	}
	fmt.Println("\npaper Figure 1 anchors (2-bit, unpruned): weight 47.43%, activation 75.25% sparsity")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ristretto-quant:", err)
	os.Exit(1)
}
