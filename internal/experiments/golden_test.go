package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// Golden tests pin the fully deterministic (workload-independent) tables,
// and the accelerator comparisons on a fixed seed, so accidental changes to
// the encoded paper content or to the engines are caught. Run with
// -update-golden after an intentional change.
func checkGolden(t *testing.T, name string, r *Result) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := r.String()
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
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTableIV(t *testing.T) { checkGolden(t, "table_iv", TableIV()) }
func TestGoldenTableVI(t *testing.T) { checkGolden(t, "table_vi", TableVI()) }
func TestGoldenFigure19a(t *testing.T) {
	checkGolden(t, "figure_19a", NewBench(1).Figure19a())
}

func TestGoldenTaxonomy(t *testing.T) {
	for i, r := range Taxonomy() {
		checkGolden(t, "taxonomy_"+string(rune('1'+i)), r)
	}
}

// comparisonBench is the shared AlexNet + ResNet-18 bench at scale 64
// behind the workload-dependent comparison goldens; its stats cache lets
// the figures below synthesize each network once.
var comparisonBench = sync.OnceValue(func() *Bench {
	b := NewQuickBench(1, 64)
	b.Nets = []string{"AlexNet", "ResNet-18"}
	return b
})

func TestGoldenFigure12(t *testing.T) { checkGolden(t, "figure_12", comparisonBench().Figure12()) }
func TestGoldenFigure13(t *testing.T) { checkGolden(t, "figure_13", comparisonBench().Figure13()) }
func TestGoldenFigure14(t *testing.T) { checkGolden(t, "figure_14", comparisonBench().Figure14()) }
func TestGoldenFigure16(t *testing.T) { checkGolden(t, "figure_16", comparisonBench().Figure16()) }
func TestGoldenFigure17(t *testing.T) { checkGolden(t, "figure_17", comparisonBench().Figure17()) }
func TestGoldenExtTableI(t *testing.T) {
	checkGolden(t, "ext_table_i", comparisonBench().ExtTableI())
}
func TestGoldenExtFigure3(t *testing.T) {
	checkGolden(t, "ext_figure_3", comparisonBench().ExtFigure3())
}
