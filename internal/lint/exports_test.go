package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// standardMethods are method names that satisfy interfaces of the standard
// library (error, fmt.Stringer, json.Marshaler, sort.Interface, io.*,
// http.Handler, flag.Value, ...), which callers reach without naming them.
var standardMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true,
	"WriteTo": true, "ReadFrom": true, "Sync": true, "Set": true,
	"ServeHTTP": true, "RoundTrip": true, "Flush": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
}

// testOracles are exports that no program calls but the tests need: a
// reference to check the program against, a seam to reach a state, or a
// replay harness. Each entry says why it stays.
var testOracles = map[string]string{
	"refconv.FullConv":             "dense reference for the full-convolution buffer the CSC and tile simulators fill (Eq. 1)",
	"atom.Reconstruct":             "inverse of Decompose that the atom round-trip and conformance recombination tests check against",
	"atom.TermValue":               "inverse of the Booth term encoding that its round-trip and fuzz tests check against",
	"core.MulSteps":                "Figure 5's closed-form step count that MultiplyStreaming is checked against",
	"ristretto.SliceAlignedSteps":  "stall-free cycle count the tile simulator is checked against",
	"ristretto.PackWords":          "word-level Atomizer model (DESIGN.md) that checks the one-atom-per-cycle abstraction",
	"ristretto.ScanWords":          "word-level Atomizer model (DESIGN.md) that checks the one-atom-per-cycle abstraction",
	"ristretto.MaxHoldCycles":      "the paper's Atomizer hold bound the word-level model is checked against",
	"ristretto.RequantShift":       "calibrates the shift the post-processor atom-count test requantizes with",
	"sparse.(*TileCOO).DecodeInto": "decoder half of the COO-2D round-trip test",
	"sparse.(*CSRMatrix).Row":      "decoder half of the CSR round-trip test",
	"sparse.MatchCount":            "whole-vector inner-join count that SparTen's per-lane LaneMatchCounts is checked against",
	"cellcache.(*Cache).EntryPath": "seam where the crash matrix plants torn cache entries",
	"telemetry.(*Registry).Reset":  "isolates tests that share telemetry.Default",
	"crashmatrix.Replay":           "truncation harness the cell-cache, checkpoint and fleet-journal crash matrices run on",
}

// goFile is one parsed non-test Go file and the import path of its package.
type goFile struct {
	file *ast.File
	pkg  string // import path
	dir  string // slash-separated, relative to the root
}

// modulePath reads the module line of root/go.mod.
func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module line", root)
}

// parseTree parses every non-test Go file under root, nested modules
// included, skipping hidden, underscore and testdata directories as the go
// tool does.
func parseTree(root, module string) (*token.FileSet, []goFile, error) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := module
		if rel != "." {
			pkg += "/" + rel
		}
		files = append(files, goFile{file: f, pkg: pkg, dir: rel})
		return nil
	})
	return fset, files, err
}

// exportDecl is one exported identifier declared under internal/.
type exportDecl struct {
	key     string // "path.Name" for package-level names, the bare name for methods
	display string // pkg.Name or pkg.(*T).M
	pos     token.Position
}

// declaredExports lists the exported package-level identifiers and the
// exported methods of exported types declared in the non-test files under
// internal/, and marks each declaring identifier in decls.
func declaredExports(fset *token.FileSet, files []goFile, decls map[*ast.Ident]bool) []exportDecl {
	var out []exportDecl
	add := func(gf goFile, id *ast.Ident) {
		decls[id] = true
		if ast.IsExported(id.Name) && strings.HasPrefix(gf.dir, "internal/") {
			out = append(out, exportDecl{key: gf.pkg + "." + id.Name, display: gf.file.Name.Name + "." + id.Name, pos: fset.Position(id.Pos())})
		}
	}
	for _, gf := range files {
		for _, decl := range gf.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(gf, d.Name)
					continue
				}
				decls[d.Name] = true
				if !ast.IsExported(d.Name.Name) || !exportedReceiver(d) ||
					standardMethods[d.Name.Name] || !strings.HasPrefix(gf.dir, "internal/") {
					continue
				}
				recv := receiverName(d)
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				out = append(out, exportDecl{key: d.Name.Name,
					display: gf.file.Name.Name + "." + recv + "." + d.Name.Name, pos: fset.Position(d.Name.Pos())})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(gf, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(gf, id)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName renders a method's receiver type as T or *T, without type
// parameters.
func receiverName(fd *ast.FuncDecl) string {
	star := ""
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			star, typ = "*", x.X
		case *ast.ParenExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return star + x.Name
		default:
			return star + "?"
		}
	}
}

// namedIn records what one file names: "path.Name" for a package-level
// identifier (pkg.Name from another package, a bare Name inside its own)
// and, for any x.Name whose x is not a package, the bare Name, which is
// all a parser can tell of a method call without types. Declaring
// identifiers (decls, and the names of fields and parameters) name nothing.
func namedIn(gf goFile, decls map[*ast.Ident]bool, named map[string]bool) {
	imports := map[string]string{}
	for _, imp := range gf.file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(gf.file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.Field:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					named[path+"."+x.Sel.Name] = true
					return false
				}
			}
			named[x.Sel.Name] = true
			skip[x.Sel] = true
		case *ast.Ident:
			if !decls[x] && !skip[x] {
				named[gf.pkg+"."+x.Name] = true
			}
		}
		return true
	})
}

// unreferencedExports returns, sorted, every exported identifier declared
// in a non-test file under root/internal that no non-test file under root
// names outside its own declaration. Every directory counts, nested modules
// such as perfbench included. Methods are matched by name alone, and
// methods that satisfy standard interfaces are skipped. Without types a
// same-named local or selector can hide an unreferenced export; the
// reverse, reporting a used one, takes a dot import or a use through
// reflection alone, which the repository has none of.
func unreferencedExports(root string) ([]exportDecl, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset, files, err := parseTree(root, module)
	if err != nil {
		return nil, err
	}
	decls := map[*ast.Ident]bool{}
	exports := declaredExports(fset, files, decls)
	named := map[string]bool{}
	for _, gf := range files {
		namedIn(gf, decls, named)
	}
	var out []exportDecl
	for _, e := range exports {
		if !named[e.key] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].display < out[j].display })
	return out, nil
}

// TestExportsReferenced fails on an exported identifier under internal/
// that no non-test file of the repository names: cmd/, examples/ and the
// perfbench module count, tests do not. Delete such code, or, if it is an
// oracle the tests check the program against, add it to testOracles with
// its reason. An allowlist entry that the program has started to call, or
// that no longer exists, fails too.
func TestExportsReferenced(t *testing.T) {
	got, err := unreferencedExports(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range got {
		seen[e.display] = true
		if _, ok := testOracles[e.display]; !ok {
			t.Errorf("%s: exported %s has no reference outside tests; delete it or allowlist it in testOracles", e.pos, e.display)
		}
	}
	for name := range testOracles {
		if !seen[name] {
			t.Errorf("testOracles lists %s, which is gone or now referenced by non-test code; drop the entry", name)
		}
	}
}

// TestExportsReferencedCanFail runs the lint on a four-export tree, so a
// walker that skipped files or counted tests could not pass vacuously:
// Used is called from cmd/, PerfOnly from a nested perfbench module,
// TestOnly only from a _test.go file, and Unused from nowhere.
func TestExportsReferencedCanFail(t *testing.T) {
	root := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":                 "module example.com/m\n\ngo 1.22\n",
		"internal/p/p.go":        "package p\n\nfunc Used()     {}\nfunc Unused()   {}\nfunc PerfOnly() {}\nfunc TestOnly() {}\n",
		"internal/p/p_test.go":   "package p\n\nimport \"testing\"\n\nfunc TestP(t *testing.T) { TestOnly() }\n",
		"cmd/m/main.go":          "package main\n\nimport \"example.com/m/internal/p\"\n\nfunc main() { p.Used() }\n",
		"perfbench/go.mod":       "module example.com/m/perfbench\n\ngo 1.22\n",
		"perfbench/perfbench.go": "package perfbench\n\nimport \"example.com/m/internal/p\"\n\nfunc Run() { p.PerfOnly() }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unreferencedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range got {
		names = append(names, e.display)
	}
	if want := []string{"p.TestOnly", "p.Unused"}; !slices.Equal(names, want) {
		t.Fatalf("lint reports %v, want %v", names, want)
	}
}
