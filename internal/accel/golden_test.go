package accel_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ristretto/internal/accel"
	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/experiments"
	"ristretto/internal/ristretto"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// cliShape is ristretto-sim's default Ristretto shape: 32 tiles × 32
// two-bit multipliers, w/a balancing.
var cliShape = ristretto.Config{Tiles: 32, Tile: ristretto.TileConfig{Mults: 32, Gran: 2}, Policy: balance.WeightAct}

// TestEstimateGolden pins every accelerator's analytic network estimate —
// cycles, DRAM bytes, every energy counter and the energy split — on
// AlexNet and ResNet-18 at all four precisions, so a refactor of the
// dispatch cannot move a number. Run with -update-golden after an
// intentional change.
func TestEstimateGolden(t *testing.T) {
	b := experiments.NewQuickBench(1, 16)
	b.Nets = []string{"AlexNet", "ResNet-18"}
	var sb strings.Builder
	for _, n := range b.Networks() {
		for _, prec := range experiments.PrecisionNames {
			stats := b.Stats(n, prec, atom.Granularity(2))
			for _, a := range accel.All() {
				perf := a.Estimate(stats, cliShape)
				cnt := perf.Counters
				fmt.Fprintf(&sb, "%s %s %s cycles=%d dram=%d\n  counters=%+v\n  split=%+v\n",
					n.Name, prec, a.Name, perf.Cycles, cnt.DRAMBytes, cnt, a.Energy(cliShape).Split(cnt))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "estimates.golden")
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
		t.Fatalf("estimates drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
