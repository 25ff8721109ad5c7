package rocket_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods of package
// rocket and of the packages under internal/ that stay exported without
// a caller in a non-test file of another package. Each value names the
// cross-package test the name serves, or starts with "satisfies" and
// names the standard-library interface that calls it.
var exportAllowlist = map[string]string{
	"cache.Cache.Pinned":            "core's TestPooledJobLifecycle checks that a finished job leaves no slot pinned",
	"experiments.AllSetups":         "TestIntegrationRuntimeNeverBeatsModelBound (integration_test.go) runs every application",
	"experiments.MeasureStorage":    "BenchmarkPairstoreScale (bench_test.go) measures the 10^7-pair point",
	"fault.Schedule.Preempt":        "core's TestFaultScheduleValidated, fleet's TestFleetPreemptDrains and jobspec's TestMembershipFaultsAreFleetOnly build preemptions with it",
	"sched.JobStatus.MarshalJSON":   "satisfies json.Marshaler: a status travels as its name",
	"sched.JobStatus.UnmarshalJSON": "satisfies json.Unmarshaler: HTTP clients decode the name back",
	"sched.Online.ReplayConfig":     "TestStartQueueOnlineThroughPublicAPI (rocket_test.go) replays the served queue with sched.Run",
	"sched.SetEventCap":             "serve's TestEventStreamAfterWindowSlides and TestJobEventStreamEndsAfterWindowSlides shrink the event window",
	"serve.Server.Queue":            "TestServeThroughPublicAPI and TestStartQueueOnlineThroughPublicAPI (rocket_test.go) read the served queue",
	"sim.Env.PendingEvents":         "cluster's TestNetworkLocalSendImmediate checks that a local send queues no event",
	"sim.GlobalHeapPushes":          "experiments' TestExperimentsGolden pins the heap pushes of every experiment",
	"sim.Resource.InUse":            "core's TestPooledJobLifecycle and cluster's TestSendAsyncDoesNotBlock read the units held",
	"testutil.Allocs":               "the allocation gates: experiments' goldens, pairstore's TestIngestAllocationBudget, core's alloc_test.go and fleet's TestFleetAllocationBudget",
}

// TestEveryExportedFuncHasACaller holds the surface of package rocket
// and of every package under internal/ to what the repository uses: each
// exported function or method must be referenced from a non-test file of
// another package (the root, cmd/, examples/, bench/ or internal/), or be
// on exportAllowlist. An export only tests call is a door nobody walks
// through: delete it, or move it into its package's _test.go files. An
// export only its own package calls is unexported. An allowlist entry
// must name something declared that has no such caller, and that another
// package's tests call or that satisfies an interface.
//
// A function counts as referenced when another package selects it through
// its import name; a method, when another package selects any field or
// method of that name. Matching methods by name can miss an orphan but
// never flags a called one.
//
// Package rocket's exported types, constants and variables are held to
// the same rule, with no allowlist: each must be referenced from a
// non-test file of another package, or be named in the signature of an
// exported root function or method that is.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	repo := parseRepo(t)

	// declared maps "pkg.F" and "pkg.T.M" to the declaring directory;
	// rootNames holds "rocket.N" for the root's other exports.
	declared := map[string]string{}
	var rootNames []string
	for _, f := range repo.files {
		if f.test || (f.dir != "." && !strings.HasPrefix(f.dir, "internal/")) {
			continue
		}
		for _, d := range f.ast.Decls {
			if gen, ok := d.(*ast.GenDecl); ok && f.dir == "." {
				rootNames = append(rootNames, exportedNames(gen)...)
			}
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declared[exportKey(repo.pkgName[f.dir], fn)] = f.dir
		}
	}
	if len(declared) == 0 || len(rootNames) == 0 {
		t.Fatal("found no exported functions or root types")
	}

	// inSignature holds every identifier named in the signature of a
	// root function or method that another package calls.
	inSignature := map[string]bool{}
	for _, f := range repo.files {
		if f.test || f.dir != "." {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !repo.referenced(exportKey("rocket", fn), ".", false) {
				continue
			}
			ast.Inspect(fn.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inSignature[id.Name] = true
				}
				return true
			})
		}
	}

	var orphans, stale []string
	for _, key := range rootNames {
		if !repo.referenced(key, ".", false) && !inSignature[strings.TrimPrefix(key, "rocket.")] {
			orphans = append(orphans, key+" (no other package names it, nor does the signature of a root function one calls: delete it)")
		}
	}
	for key, dir := range declared {
		reason, allowed := exportAllowlist[key]
		switch called := repo.referenced(key, dir, false); {
		case called && allowed:
			stale = append(stale, key+" has a caller outside its package; drop it from exportAllowlist")
		case !called && !allowed:
			orphans = append(orphans, key+" ("+repo.users(key, dir)+")")
		case allowed && reason == "":
			stale = append(stale, key+" has no reason in exportAllowlist")
		case allowed && !strings.HasPrefix(reason, "satisfies ") && !repo.referenced(key, dir, true):
			stale = append(stale, key+" has no caller in another package's tests; unexport it or move it into a _test.go file")
		}
	}
	for key := range exportAllowlist {
		if _, ok := declared[key]; !ok {
			stale = append(stale, key+" is on exportAllowlist but declared nowhere")
		}
	}
	sort.Strings(orphans)
	sort.Strings(stale)
	for _, s := range stale {
		t.Error(s)
	}
	if len(orphans) > 0 {
		t.Errorf("%d of %d exported names have no caller outside their package and tests:\n\t%s",
			len(orphans), len(declared)+len(rootNames), strings.Join(orphans, "\n\t"))
	}
}

// exportedNames returns "rocket.N" for each exported type, constant or
// variable a root declaration introduces.
func exportedNames(gen *ast.GenDecl) []string {
	var names []string
	for _, spec := range gen.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() {
				names = append(names, "rocket."+s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, id := range s.Names {
				if id.IsExported() {
					names = append(names, "rocket."+id.Name)
				}
			}
		}
	}
	return names
}

// TestInternalDoesNotImportRoot holds the layering: package rocket is
// the public door onto internal/, so no package under internal/, test
// files included, may import it back.
func TestInternalDoesNotImportRoot(t *testing.T) {
	for _, f := range parseRepo(t).files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, imp := range f.ast.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "rocket" {
				t.Errorf("%s imports package rocket", f.dir)
			}
		}
	}
}

// exportKey is "pkg.F" for a function and "pkg.T.M" for a method.
func exportKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
}

type goFile struct {
	dir  string
	test bool
	ast  *ast.File
}

type goRepo struct {
	fset    *token.FileSet
	files   []goFile
	pkgName map[string]string // directory -> package name of its non-test files
}

// parseRepo parses every Go file of the root package and under cmd/,
// examples/, bench/ and internal/.
func parseRepo(t *testing.T) *goRepo {
	t.Helper()
	fset := token.NewFileSet()
	repo := &goRepo{fset: fset, pkgName: map[string]string{}}
	for _, root := range []string{".", "cmd", "examples", "bench", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir
				}
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			file := goFile{dir: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(path, "_test.go"), ast: f}
			if !file.test {
				repo.pkgName[file.dir] = f.Name.Name
			}
			repo.files = append(repo.files, file)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// referenced reports whether a file outside dir, of the kind test
// selects, refers to key: a function through dir's import name, a method
// by its name alone.
func (r *goRepo) referenced(key, dir string, test bool) bool {
	name := key[strings.LastIndexByte(key, '.')+1:]
	method := strings.Count(key, ".") == 2
	for _, f := range r.files {
		if f.test != test || f.dir == dir {
			continue
		}
		imported := r.importName(f.ast, dir)
		if !method && imported == "" {
			continue
		}
		found := false
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || found || sel.Sel.Name != name {
				return !found
			}
			if x, ok := sel.X.(*ast.Ident); method || (ok && x.Name == imported) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// users says who refers to key besides its own package's tests, for the
// failure message. Its own package calls it when its name appears there
// more often than its one declaration.
func (r *goRepo) users(key, dir string) string {
	if r.referenced(key, dir, true) {
		return "only other packages' tests call it"
	}
	name := key[strings.LastIndexByte(key, '.')+1:]
	mentions := 0
	for _, f := range r.files {
		if !f.test && f.dir == dir {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					mentions++
				}
				return true
			})
		}
	}
	if mentions > 1 {
		return "only its own package calls it: unexport it"
	}
	return "nothing outside its own tests calls it: delete it or move it into a _test.go file"
}

// importName returns the name under which f imports the package in dir,
// or "" when it does not.
func (r *goRepo) importName(f *ast.File, dir string) string {
	want := "rocket"
	if dir != "." {
		want += "/" + dir
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != want {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return r.pkgName[dir]
	}
	return ""
}

// configFieldAllowlist names the config fields that stay settable
// without a writer outside their package. Each value says who sets it.
var configFieldAllowlist = map[string]string{
	"fleet.Config.Nodes": "fleet.DefaultConfig(nodes) sets it from its argument, which every caller outside fleet passes",
}

// TestEveryConfigFieldIsSet holds every knob under internal/ to a
// caller. It covers the exported fields of the exported struct types
// named Config or ending in Config, Params or Options, plus
// sched.Autoscale and fault.Elasticity. A field passes when a non-test
// file of another package (the root, cmd/, examples/, bench/ or
// internal/) writes it: as a composite-literal key or element, as the
// target of an assignment, or through &x.F (a flag binding). A field
// with a json tag passes, since decoding sets it. A field that only its
// own package's defaults or tests set has one value in use: make it a
// constant, or delete it.
//
// Writes are matched per field object with go/types, not per name, so
// one package writing its own NodeSpec does not hide another's.
func TestEveryConfigFieldIsSet(t *testing.T) {
	pkgs := typeCheckRepo(t, parseRepo(t))

	fields := map[*types.Var]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path(), "rocket/internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isConfigType(p.Name()+"."+name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, decoded := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !decoded {
					fields[f] = p.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no config fields")
	}

	written := map[*types.Var]bool{}
	for _, p := range pkgs {
		p.writes(func(f *types.Var) {
			if f.Pkg() != p.Package {
				written[f] = true
			}
		})
	}

	keys := map[string]bool{}
	var unset []string
	for f, key := range fields {
		keys[key] = true
		_, allowed := configFieldAllowlist[key]
		switch {
		case written[f] && allowed:
			t.Errorf("%s is written outside its package; drop it from configFieldAllowlist", key)
		case !written[f] && !allowed:
			unset = append(unset, key)
		}
	}
	for key := range configFieldAllowlist {
		if !keys[key] {
			t.Errorf("%s is on configFieldAllowlist but is no config field", key)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d config fields are set only by their own package or tests (make each a constant, or delete it):\n\t%s",
			len(unset), len(fields), strings.Join(unset, "\n\t"))
	}
}

// isConfigType reports whether "pkg.T" names a configuration struct.
func isConfigType(name string) bool {
	if name == "sched.Autoscale" || name == "fault.Elasticity" {
		return true
	}
	for _, suffix := range []string{"Config", "Params", "Options"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// checkedPkg is one type-checked package of the repository: its
// non-test files and what go/types recorded about them.
type checkedPkg struct {
	*types.Package
	files []*ast.File
	info  *types.Info
}

// writes calls fn on each struct field that p's files write: a keyed or
// positional composite-literal element, an assignment or ++/-- target,
// or the operand of &.
func (p *checkedPkg) writes(fn func(*types.Var)) {
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if f, ok := p.info.Uses[x.Sel].(*types.Var); ok && f.IsField() {
					fn(f)
				}
			}
			return
		}
	}
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				st, ok := p.info.TypeOf(x).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if f, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							fn(f)
						}
					} else {
						fn(st.Field(i))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X)
				}
			}
			return true
		})
	}
}

// typeCheckRepo type-checks the non-test files of every package
// parseRepo read. Repository imports resolve to these checked packages,
// so a field is one object wherever it is named; the standard library
// comes from the export data `go list -export` reports.
func typeCheckRepo(t *testing.T, repo *goRepo) []*checkedPkg {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			export[path] = file
		}
	}
	std := importer.ForCompiler(repo.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	files := map[string][]*ast.File{}
	for _, f := range repo.files {
		if !f.test {
			path := "rocket"
			if f.dir != "." {
				path += "/" + f.dir
			}
			files[path] = append(files[path], f.ast)
		}
	}
	checked := map[string]*checkedPkg{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		return check(path)
	})
	check = func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p.Package, nil
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, repo.fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = &checkedPkg{Package: pkg, files: files[path], info: info}
		return pkg, nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*checkedPkg, 0, len(paths))
	for _, path := range paths {
		if _, err := check(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, checked[path])
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
