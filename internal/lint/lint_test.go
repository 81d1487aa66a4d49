// Package lint holds repository-hygiene tests: godoc coverage of the
// internal packages, intra-repo markdown link integrity, one durable-record
// framing, and no exported identifier that only tests call. CI runs them
// both through the normal test sweep and as a dedicated docs job; they use
// only go/parser and the filesystem, so there is nothing to install.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// repoRoot locates the repository root relative to this source file.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate lint_test.go")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// goPackageDirs returns every directory under root that contains non-test
// Go files.
func goPackageDirs(t *testing.T, root string) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// parseDir parses the non-test Go files of one package directory.
func parseDir(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	return fset, files
}

// TestPackageDocs requires a package-level doc comment in every internal/*
// package (and the cmd binaries, which document their CLI contract there).
func TestPackageDocs(t *testing.T) {
	root := repoRoot(t)
	for _, sub := range []string{"internal", "cmd"} {
		for _, dir := range goPackageDirs(t, filepath.Join(root, sub)) {
			_, files := parseDir(t, dir)
			documented := false
			for _, f := range files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				rel, _ := filepath.Rel(root, dir)
				t.Errorf("package %s has no package-level doc comment", rel)
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package API).
func exportedReceiver(fd *ast.FuncDecl) bool {
	return fd.Recv == nil || ast.IsExported(strings.TrimPrefix(receiverName(fd), "*"))
}

// TestExportedDocComments requires doc comments on every exported
// identifier of the packages that promise full godoc: internal/telemetry,
// internal/runner, internal/ristretto, internal/server, internal/loadtest,
// internal/accel, internal/memo, internal/safeio, internal/workload,
// internal/quant and internal/atom.
func TestExportedDocComments(t *testing.T) {
	root := repoRoot(t)
	for _, pkg := range []string{
		"internal/telemetry", "internal/runner", "internal/ristretto",
		"internal/server", "internal/loadtest", "internal/accel",
		"internal/memo", "internal/safeio", "internal/workload",
		"internal/quant", "internal/atom",
	} {
		fset, files := parseDir(t, filepath.Join(root, pkg))
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !ast.IsExported(d.Name.Name) || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						pos := fset.Position(d.Pos())
						t.Errorf("%s: exported %s lacks a doc comment", pos, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						var specDoc *ast.CommentGroup
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
							specDoc = s.Doc
						case *ast.ValueSpec:
							names = s.Names
							specDoc = s.Doc
							if specDoc == nil {
								specDoc = s.Comment
							}
						}
						for _, name := range names {
							if !ast.IsExported(name.Name) {
								continue
							}
							// A doc comment on the grouped declaration
							// covers its specs (the idiomatic const-block
							// style); otherwise the spec needs its own.
							if d.Doc == nil && specDoc == nil {
								pos := fset.Position(name.Pos())
								t.Errorf("%s: exported %s lacks a doc comment", pos, name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// TestOneRecordFraming keeps checksummed on-disk framing in the three
// packages that own a distinct format: internal/safeio (the record log
// under the checkpoint and the fleet journal), internal/cellcache (cache
// entries) and internal/modelio (.rstt tensors). A non-test file anywhere
// else that imports hash/crc32 is growing a fourth codec; it should build
// on safeio.Log instead.
func TestOneRecordFraming(t *testing.T) {
	root := repoRoot(t)
	allowed := map[string]bool{
		"internal/safeio": true, "internal/cellcache": true, "internal/modelio": true,
	}
	for _, dir := range goPackageDirs(t, root) {
		rel, _ := filepath.Rel(root, dir)
		if allowed[filepath.ToSlash(rel)] {
			continue
		}
		fset, files := parseDir(t, dir)
		for _, f := range files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"hash/crc32"` {
					t.Errorf("%s: imports hash/crc32; frame durable records with safeio.Log", fset.Position(imp.Pos()))
				}
			}
		}
	}
}

// mdLink matches inline markdown links; the first capture is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails on broken intra-repo links in the root-level and
// docs/ markdown files: every relative link target (file or directory,
// anchors stripped) must exist. External URLs and pure-anchor links are
// skipped, as are fenced code blocks.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	docs, err := filepath.Glob(filepath.Join(root, "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, sub...)
	if len(docs) == 0 {
		t.Fatal("no markdown docs found at repo root")
	}
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for ln, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(doc), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s:%d: broken intra-repo link %q", filepath.Base(doc), ln+1, m[1])
				}
			}
		}
	}
}
