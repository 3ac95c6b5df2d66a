package migratorydata_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// nonTestLineCeiling is the size budget: non-test Go lines in the module
// outside benchmark/ and testdata/. ROADMAP aim 2 — "lines and concepts are
// a cost we track" — as a number a PR has to raise on purpose, with the
// reason in its text. Set to the tree's size rounded up to the next 100; a
// PR that cannot land under it raises it by its overage rounded up to the
// next 10. Lower it when a PR deletes.
const nonTestLineCeiling = 19_100

// TestSizeLedger walks the module and prints, per package, the non-test Go
// lines (newline count, as `wc -l`) and the exported identifiers (top-level
// funcs, types, consts, vars, and methods with exported names), then fails
// if the total outside benchmark/ and testdata/ exceeds nonTestLineCeiling.
// Run with -v for the table.
//
// One entry is heavier than it looks: internal/loadgen (2.8 K lines) has
// only test importers since the six bench CLIs went — it is the
// in-process harness behind invariants_test.go and bench_test.go, not part
// of any binary.
func TestSizeLedger(t *testing.T) {
	type size struct{ lines, exported int }
	perPkg := map[string]*size{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s := perPkg[filepath.Dir(path)]
		if s == nil {
			s = &size{}
			perPkg[filepath.Dir(path)] = s
		}
		s.lines += bytes.Count(src, []byte{'\n'})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					s.exported++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							s.exported++
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() {
								s.exported++
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pkgs := make([]string, 0, len(perPkg))
	for p := range perPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	total := 0
	for _, p := range pkgs {
		s := perPkg[p]
		t.Logf("%-28s %6d lines %4d exported", p, s.lines, s.exported)
		if p != "benchmark" {
			total += s.lines
		}
	}
	t.Logf("%-28s %6d lines (ceiling %d)", "total outside benchmark/", total, nonTestLineCeiling)
	if total > nonTestLineCeiling {
		t.Errorf("%d non-test Go lines outside benchmark/ and testdata/, ceiling is %d: "+
			"delete something, or raise nonTestLineCeiling in this PR and say why", total, nonTestLineCeiling)
	}
}
