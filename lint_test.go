package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// TestCIWorkflowPatterns keeps the CI workflow's test selections live.
// A -run, -bench or -fuzz pattern that matches nothing makes go test pass
// while running nothing, so a renamed or deleted test would silently drop
// out of its CI step. For every go test command in ci.yml (lines continued
// with a backslash are joined), each |-separated alternative of those
// patterns must match at least one test function of the matching kind
// declared in the _test.go files of the packages the command names. The
// empty selection '^$' is skipped.
func TestCIWorkflowPatterns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	prefixes := map[string][]string{
		"run":   {"Test", "Fuzz", "Example"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}
	checked := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
		line = strings.TrimSpace(line)
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		cmd := line[i:]
		pkgs, patterns := parseGoTest(shellWords(cmd[len("go test "):]))
		if len(patterns) == 0 {
			continue
		}
		var names []string
		for _, pkg := range pkgs {
			names = append(names, testFuncNames(t, pkg)...)
		}
		for flag, pat := range patterns {
			for _, alt := range strings.Split(pat, "|") {
				if alt == "^$" {
					continue
				}
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%q: -%s alternative %q: %v", cmd, flag, alt, err)
					continue
				}
				if !matchesAny(re, names, prefixes[flag]) {
					t.Errorf("%q: -%s alternative %q matches no %v function in %v",
						cmd, flag, alt, prefixes[flag], pkgs)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("lint checked only %d alternatives; the workflow parse is broken", checked)
	}
}

// shellWords splits a shell command line into words, honouring single and
// double quotes, and drops everything from the first unquoted |, ; or &&.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s + " " {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	for i, w := range words {
		if w == "|" || w == ";" || w == "&&" {
			return words[:i]
		}
	}
	return words
}

// parseGoTest splits go test's arguments into package patterns and the
// -run, -bench and -fuzz selections. Flags not listed as boolean take the
// next word as their value unless written -flag=value.
func parseGoTest(args []string) (pkgs []string, patterns map[string]string) {
	boolean := map[string]bool{"race": true, "benchmem": true, "v": true, "short": true, "json": true, "cover": true, "failfast": true}
	patterns = map[string]string{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasVal && !boolean[name] && i+1 < len(args) {
			i++
			val = args[i]
		}
		if name == "run" || name == "bench" || name == "fuzz" {
			patterns[name] = val
		}
	}
	return pkgs, patterns
}

// testFuncNames returns the top-level function names declared in the
// _test.go files of the package directory dir.
func testFuncNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("package %s: no test files to match against (%v)", dir, err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// matchesAny reports whether re matches a name carrying one of prefixes.
func matchesAny(re *regexp.Regexp, names, prefixes []string) bool {
	for _, name := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
