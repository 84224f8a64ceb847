package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// nonTestGoFiles lists every non-test .go file of the module, the nested
// stagebench module included, skipping testdata and hidden directories.
func nonTestGoFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestPackageDocs is the missing-package-doc lint the CI vet step pairs
// with: every package in the module — the facade, internal/, cmd/,
// examples/ — must carry a package doc comment in at least one of its
// non-test files. The doc comments are the repo's contract surface (the
// delta-chain, repair and ladder contracts live in them), so a new package
// without one fails here rather than shipping undocumented.
func TestPackageDocs(t *testing.T) {
	fset := token.NewFileSet()
	byDir := map[string]bool{} // dir -> has a package doc
	for _, path := range nonTestGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(path)
		byDir[dir] = byDir[dir] || f.Doc != nil
	}
	for dir, documented := range byDir {
		if !documented {
			t.Errorf("package in %s has no package doc comment in any file", dir)
		}
	}
	if len(byDir) < 10 {
		t.Fatalf("lint walked only %d packages; the walk is broken", len(byDir))
	}
}

// TestNoExportedReferenceForms keeps the naive and rescan reference forms
// in test code. Production carries one form per algorithm; a reference
// lives in a _test.go file of its package and reaches production code only
// through unexported seams (runLoop's rescan argument, randArrMatching's
// feeder constructor). So no non-test file may declare an exported
// identifier containing "Naive" or "Rescan": not a function, method, type,
// variable or constant, and not a struct field or interface method.
func TestNoExportedReferenceForms(t *testing.T) {
	fset := token.NewFileSet()
	paths := nonTestGoFiles(t)
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range declaredNames(f) {
			if id.IsExported() && (strings.Contains(id.Name, "Naive") || strings.Contains(id.Name, "Rescan")) {
				t.Errorf("%s: exported %s names a reference form; move it into a _test.go file",
					fset.Position(id.Pos()), id.Name)
			}
		}
	}
	if len(paths) < 50 {
		t.Fatalf("lint parsed only %d files; the walk is broken", len(paths))
	}
}

// declaredNames returns every identifier f declares: functions and
// methods, types, variables and constants, and the names of every field
// list (struct fields, interface methods, parameters and results).
func declaredNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ids = append(ids, n.Name)
		case *ast.TypeSpec:
			ids = append(ids, n.Name)
		case *ast.ValueSpec:
			ids = append(ids, n.Names...)
		case *ast.Field:
			ids = append(ids, n.Names...)
		}
		return true
	})
	return ids
}
