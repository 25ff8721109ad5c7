package rocket_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
)

// TestDocsNameExistingCode holds the docs a reader follows to code that
// exists: every cmd/x, ./cmd/x and examples/x path they name is a
// directory, every code span that is a whole TestX, FuzzX or BenchmarkX
// name is a func in some _test.go file, and every `make T` in code names
// a Makefile target.
func TestDocsNameExistingCode(t *testing.T) {
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
			for _, m := range makeRef.FindAllStringSubmatchIndex(s.code, -1) {
				if target := s.code[m[2]:m[3]]; !targets[target] {
					t.Errorf("%s:%d names make %s, which is no Makefile target", doc, line(s.offset+m[2]), target)
				}
			}
		}
	}
}
