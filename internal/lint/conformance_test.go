package lint

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

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

// TestServingFlagTable requires SERVING.md's flag table to agree with the
// flags ristretto-serve registers: one row per flag, no row for a flag the
// daemon lacks, and each row's default the flag's own (an empty string or
// false is written "—").
func TestServingFlagTable(t *testing.T) {
	root := repoRoot(t)
	flags := map[string]servingFlag{}
	registers := func(file, pkg string) bool {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, file), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		profiler := false
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			profiler = profiler || sel.Sel.Name == "RegisterFlags"
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != pkg {
				return true
			}
			kind, args := strings.TrimSuffix(sel.Sel.Name, "Var"), call.Args
			if kind != sel.Sel.Name {
				args = args[1:]
			}
			if len(args) != 3 {
				return true
			}
			name, def := flagConst(args[0]), flagConst(args[1])
			if name.Kind() != constant.String || def.Kind() == constant.Unknown {
				t.Errorf("%s: cannot read the flag registered at %s", file, sel.Sel.Name)
				return true
			}
			flags["-"+constant.StringVal(name)] = servingFlag{kind, flagDefault(kind, def)}
			return true
		})
		return profiler
	}
	if registers(filepath.Join("cmd", "ristretto-serve", "main.go"), "flag") {
		registers(filepath.Join("internal", "telemetry", "profiling.go"), "fs")
	}
	if len(flags) == 0 {
		t.Fatal("found no ristretto-serve flags")
	}

	raw, err := os.ReadFile(filepath.Join(root, "SERVING.md"))
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]+)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cols := strings.Split(line, "|")
		def := "—"
		if m := code.FindStringSubmatch(cols[2]); m != nil {
			def = m[1]
		}
		for _, m := range code.FindAllStringSubmatch(cols[1], -1) {
			name := m[1]
			documented[name] = true
			f, ok := flags[name]
			if d, err := time.ParseDuration(def); err == nil && f.kind == "Duration" {
				def = d.String() // the table's "2m" is the flag's "2m0s"
			}
			switch {
			case !ok:
				t.Errorf("SERVING.md documents %s, which ristretto-serve does not register", name)
			case def != f.def:
				t.Errorf("SERVING.md gives %s the default %q, the flag's is %q", name, def, f.def)
			}
		}
	}
	for name := range flags {
		if !documented[name] {
			t.Errorf("ristretto-serve registers %s, which SERVING.md's flag table lacks", name)
		}
	}
}

// servingFlag is one registered flag: its flag-package kind (Int,
// Duration, ...) and its default as SERVING.md writes it.
type servingFlag struct{ kind, def string }

// flagConst evaluates a flag registration argument: a literal, an
// operation on literals, or one of time's unit constants.
func flagConst(e ast.Expr) constant.Value {
	units := map[string]time.Duration{"Nanosecond": time.Nanosecond, "Microsecond": time.Microsecond,
		"Millisecond": time.Millisecond, "Second": time.Second, "Minute": time.Minute, "Hour": time.Hour}
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0)
	case *ast.Ident:
		if e.Name == "true" || e.Name == "false" {
			return constant.MakeBool(e.Name == "true")
		}
	case *ast.SelectorExpr:
		if d, ok := units[e.Sel.Name]; ok {
			return constant.MakeInt64(int64(d))
		}
	case *ast.BinaryExpr:
		x, y := flagConst(e.X), flagConst(e.Y)
		if e.Op == token.SHL {
			n, _ := constant.Uint64Val(y)
			return constant.Shift(x, token.SHL, uint(n))
		}
		return constant.BinaryOp(x, e.Op, y)
	}
	return constant.MakeUnknown()
}

// flagDefault renders a flag's default the way the table writes it.
func flagDefault(kind string, v constant.Value) string {
	switch {
	case kind == "Duration":
		n, _ := constant.Int64Val(v)
		return time.Duration(n).String()
	case v.Kind() == constant.String && constant.StringVal(v) != "":
		return constant.StringVal(v)
	case v.Kind() == constant.String || v.Kind() == constant.Bool && !constant.BoolVal(v):
		return "—"
	}
	return v.ExactString()
}
