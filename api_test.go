package rocket_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportedFuncHasACaller holds the public surface to what the
// repository uses: every exported top-level function of package rocket
// must be referenced as rocket.F from a non-test file under cmd/,
// examples/, bench/ or internal/. An export only tests call is a door
// nobody walks through; delete it. Methods are not counted.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	exported := map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				exported[fn.Name.Name] = true
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported functions in package rocket")
	}

	called := map[string]bool{}
	for _, dir := range []string{"cmd", "examples", "bench", "internal"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			name := rocketImportName(f)
			if name == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var orphans []string
	for fn := range exported {
		if !called[fn] {
			orphans = append(orphans, fn)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("%d of %d exported functions have no caller outside tests: %s",
			len(orphans), len(exported), strings.Join(orphans, ", "))
	}
}

// rocketImportName returns the name under which f imports package rocket,
// or "" when it does not.
func rocketImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "rocket" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "rocket"
	}
	return ""
}
