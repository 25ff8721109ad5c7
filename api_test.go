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
	files   []goFile
	pkgName map[string]string // directory -> package name of its non-test files
}

// parseRepo parses every Go file of the root package and under cmd/,
// examples/, bench/ and internal/.
func parseRepo(t *testing.T) *goRepo {
	t.Helper()
	fset := token.NewFileSet()
	repo := &goRepo{pkgName: map[string]string{}}
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
