package rocket_test

import (
	"fmt"
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// dirRef is a cmd/ or examples/ path that is not part of a longer
	// path, optionally written ./cmd/x.
	dirRef = regexp.MustCompile(`(?:^|[^\w/.])(?:\./)?((?:cmd|examples)/[\w-]+)`)
	// testName is a code span that is exactly one test, fuzz or
	// benchmark function name; regex prefixes such as TestOnline*Replay*
	// do not match.
	testName  = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)\w*$`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	makeRef   = regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	makeRule  = regexp.MustCompile(`(?m)^([\w-]+):`)
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	codeFence = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\n]*$")
	// goName is a code span that is exactly pkg.Name or pkg.Type.Member,
	// optionally with type arguments or a call's arguments after it.
	goName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*)?)(?:\[[^\]]*\])?(?:\(.*\))?$`)
	// goPath is a repo path of a Go file, optionally with a line number;
	// * in it globs.
	goPath = regexp.MustCompile(`(?:^|[\s(\x60])((?:[\w.*-]+/)*[A-Za-z0-9*][\w*-]*\.go)(?::(\d+))?\b`)
)

// TestDocsNameExistingCode holds the docs a reader follows to code that
// exists: every cmd/x, ./cmd/x and examples/x path they name is a
// directory, every code span that is a whole TestX, FuzzX or BenchmarkX
// name is a func in some _test.go file, every `make T` in code names a
// Makefile target, every code span pkg.Name or pkg.Type.Member whose pkg
// is a package of this repository names a declaration in it (a
// top-level name; a method, named struct field or interface method of
// Type), and every path of a Go file exists, with at least N lines when
// cited as path:N.
func TestDocsNameExistingCode(t *testing.T) {
	decls := goDeclarations(parseRepo(t))
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		line := func(offset int) int { return 1 + strings.Count(text[:offset], "\n") }

		for _, m := range dirRef.FindAllStringSubmatchIndex(text, -1) {
			dir := text[m[2]:m[3]]
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s:%d names %s, which is not a directory", doc, line(m[2]), dir)
			}
		}
		for _, m := range goPath.FindAllStringSubmatchIndex(text, -1) {
			cited, lineNo := text[m[2]:m[3]], ""
			if m[4] >= 0 {
				cited, lineNo = text[m[2]:m[5]], text[m[4]:m[5]]
			}
			if err := goFileHas(text[m[2]:m[3]], lineNo); err != nil {
				t.Errorf("%s:%d names %s: %v", doc, line(m[2]), cited, err)
			}
		}

		// Code is each fenced block and each inline span outside them;
		// blanking the fences keeps offsets, so lines stay right.
		type span struct {
			code   string
			offset int
		}
		var spans []span
		prose := []byte(text)
		for _, m := range codeFence.FindAllStringIndex(text, -1) {
			spans = append(spans, span{text[m[0]:m[1]], m[0]})
			for i := m[0]; i < m[1]; i++ {
				if prose[i] != '\n' {
					prose[i] = ' '
				}
			}
		}
		for _, m := range codeSpan.FindAllSubmatchIndex(prose, -1) {
			spans = append(spans, span{text[m[2]:m[3]], m[2]})
		}
		for _, s := range spans {
			if testName.MatchString(s.code) && !funcs[s.code] {
				t.Errorf("%s:%d names %s, which is no func in a _test.go file", doc, line(s.offset), s.code)
			}
			if m := goName.FindStringSubmatch(s.code); m != nil && !strings.HasSuffix(s.code, ".go") && decls[m[1]] != nil && !decls[m[1]][m[2]] {
				t.Errorf("%s:%d names %s.%s, which package %s does not declare", doc, line(s.offset), m[1], m[2], m[1])
			}
			for _, m := range makeRef.FindAllStringSubmatchIndex(s.code, -1) {
				if target := s.code[m[2]:m[3]]; !targets[target] {
					t.Errorf("%s:%d names make %s, which is no Makefile target", doc, line(s.offset+m[2]), target)
				}
			}
		}
	}
}

// goDeclarations maps each package name of the repository but main to
// what its files declare: top-level names, and Type.Member for every
// method, named struct field and interface method.
func goDeclarations(repo *goRepo) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	for _, f := range repo.files {
		pkg := strings.TrimSuffix(f.ast.Name.Name, "_test")
		if pkg == "main" {
			continue
		}
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		names := decls[pkg]
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := exportKey(pkg, d)
				names[key[len(pkg)+1:]] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, id := range field.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// goFileHas checks that the Go file at pattern (a path from the repo
// root; * globs) exists and, when lineNo is set, has at least that many
// lines.
func goFileHas(pattern, lineNo string) error {
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no such file (a path from the repository root)")
	}
	if lineNo == "" {
		return nil
	}
	n, _ := strconv.Atoi(lineNo)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if lines := strings.Count(string(src), "\n"); n < 1 || n > lines {
			return fmt.Errorf("%s has %d lines", path, lines)
		}
	}
	return nil
}
