package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ristretto/internal/accel"
	"ristretto/internal/conformance"
)

// TestEveryBaselineHasConformanceEngine is the structural counterpart of
// the differential harness: every accelerator package under
// internal/baselines must have a row in the accelerator table and register
// at least one engine adapter named after its directory, so a new baseline
// cannot land without being reachable from the CLIs and cross-checked
// against the reference convolution.
func TestEveryBaselineHasConformanceEngine(t *testing.T) {
	dir := filepath.Join(repoRoot(t), "internal", "baselines")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := accel.ByName(e.Name()); !ok {
			t.Errorf("baseline package internal/baselines/%s has no row in the accelerator table (see internal/accel)", e.Name())
		}
		if _, ok := conformance.ByName(e.Name()); !ok {
			t.Errorf("baseline package internal/baselines/%s has no conformance engine registration", e.Name())
		}
	}
}

// TestAccelSimulatorsAreConformanceEngines checks the table from the other
// side: every row with a functional simulator is a registered conformance
// engine under the row's name.
func TestAccelSimulatorsAreConformanceEngines(t *testing.T) {
	for _, a := range accel.All() {
		if a.Simulate == nil {
			continue
		}
		if e, ok := conformance.ByName(a.Name); !ok || e.Analytic {
			t.Errorf("accelerator %q has a functional simulator but no numeric conformance engine", a.Name)
		}
	}
}

// TestRistrettoViewsHaveConformanceEngines pins the Ristretto-side adapter
// set: the functional CSC pipeline (sparse and dense), both simulators and
// the analytic model must all stay registered.
func TestRistrettoViewsHaveConformanceEngines(t *testing.T) {
	for _, name := range []string{"csc", "csc-ns", "tile-sim", "core-sim", "analytic"} {
		if _, ok := conformance.ByName(name); !ok {
			t.Errorf("engine %q missing from the conformance registry", name)
		}
	}
}

// TestAPIDocAccelList requires the `accel` row of docs/api.md to list
// exactly the accelerator table's names, in table order.
func TestAPIDocAccelList(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| `accel` |") {
			continue
		}
		cols := strings.Split(line, "|")
		var documented []string
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cols[len(cols)-2], -1) {
			documented = append(documented, m[1])
		}
		if !slices.Equal(documented, accel.Names()) {
			t.Errorf("docs/api.md lists accel %v, the table has %v", documented, accel.Names())
		}
		return
	}
	t.Fatal("docs/api.md has no `accel` field row")
}
