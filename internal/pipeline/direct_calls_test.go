package pipeline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// stageFuncs are the stage functions this package sequences, by the
// import path of the package that defines them.
var stageFuncs = map[string][]string{
	"memoir/internal/parser":   {"Parse"},
	"memoir/internal/ir":       {"Verify"},
	"memoir/internal/core":     {"Apply"},
	"memoir/internal/bytecode": {"Compile", "Verify"},
}

// directCallAllowed lists the calls outside this package that must run
// a stage on its own, keyed "file:enclosing function:callee".
var directCallAllowed = map[string]string{
	"cmd/adelint/main.go:parse:parser.Parse":        "lint must accept programs the verifier rejects, to explain them",
	"internal/difftest/difftest.go:build:ir.Verify": "Config.Mutate rewrites the program after the pipeline ran",
}

// TestNoDirectStageCalls keeps the stage order and the verify-after-
// every-producer rule in one place: no non-test file of the module
// outside this package and the stage packages uses a stage directly.
func TestNoDirectStageCalls(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{}
	for _, dir := range []string{"internal/pipeline", "internal/parser", "internal/ir", "internal/core", "internal/bytecode"} {
		skip[dir] = true
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			name := d.Name()
			if skip[rel] || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, call := range stageCalls(f) {
			key := rel + ":" + call
			if _, ok := directCallAllowed[key]; ok {
				seen[key] = true
				continue
			}
			t.Errorf("%s: direct stage call; use internal/pipeline", key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range directCallAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches no call; remove it", key)
		}
	}
}

// stageCalls returns "enclosing declaration:pkg.Func" for every use in
// f of a stage function, called or taken as a value.
func stageCalls(f *ast.File) []string {
	stages := map[string][]string{} // local import name → stage funcs
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		fns, ok := stageFuncs[path]
		if !ok {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		stages[name] = fns
	}
	var out []string
	for _, decl := range f.Decls {
		encl := "package-level"
		if fn, ok := decl.(*ast.FuncDecl); ok {
			encl = fn.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, name := range stages[pkg.Name] {
				if sel.Sel.Name == name {
					out = append(out, encl+":"+pkg.Name+"."+name)
				}
			}
			return true
		})
	}
	return out
}
