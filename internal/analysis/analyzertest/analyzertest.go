// Package analyzertest runs an analyzer over a fixture directory and
// checks its diagnostics against `// want` expectations, in the style of
// golang.org/x/tools/go/analysis/analysistest (which this module cannot
// depend on).
//
// Fixture layout: each directory under testdata/src holds one package of
// plain .go files. A line producing a diagnostic carries a trailing
// comment with one double-quoted regular expression per expected
// diagnostic:
//
//	for k := range m { // want `range over map`
//		...
//	}
//
// Both `// want "re"` and backquoted `// want `+"`re`"+` forms work. Lines
// without a want comment must produce no diagnostic.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// wantRE matches one quoted expectation after a `// want` marker.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// exportCache memoizes `go list -export` runs across tests in a process.
var exportCache struct {
	sync.Mutex
	m map[string]map[string]string
}

// Run loads the fixture package in dir, applies the analyzer, and reports
// any mismatch between produced diagnostics and `// want` expectations as
// test failures.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	// Resolve fixture imports (stdlib only) via compiler export data.
	paths := make([]string, 0, len(importSet))
	//f2tree:unordered collected paths are sorted on the next line
	for p := range importSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports, err := cachedExportData(paths)
	if err != nil {
		t.Fatalf("loading export data for fixture imports %v: %v", paths, err)
	}
	pkgPath := "fixture/" + filepath.Base(dir)
	pkg, info, err := analysis.Check(pkgPath, fset, files, analysis.ExportDataImporter(fset, exports))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}

	got := make(map[string][]string) // "file:line" → messages
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
			got[key] = append(got[key], d.Message)
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	want := expectations(t, fset, files)
	//f2tree:unordered per-key matching is independent; only t.Errorf order varies
	for key, res := range want {
		msgs := got[key]
		for _, re := range res {
			matched := false
			for i, m := range msgs {
				if re.MatchString(m) {
					msgs = append(msgs[:i], msgs[i+1:]...)
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: no diagnostic matching %q (got %v)", key, re, got[key])
			}
		}
		if len(msgs) > 0 {
			t.Errorf("%s: unexpected extra diagnostics %v", key, msgs)
		}
		delete(got, key)
	}
	//f2tree:unordered per-key reporting is independent; only t.Errorf order varies
	for key, msgs := range got {
		t.Errorf("%s: unexpected diagnostics %v", key, msgs)
	}
}

// expectations extracts the `// want` comments, keyed like got above.
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	want := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, expr, err)
					}
					want[key] = append(want[key], re)
				}
			}
		}
	}
	return want
}

func cachedExportData(paths []string) (map[string]string, error) {
	key := strings.Join(paths, ",")
	exportCache.Lock()
	defer exportCache.Unlock()
	if exportCache.m == nil {
		exportCache.m = make(map[string]map[string]string)
	}
	if m, ok := exportCache.m[key]; ok {
		return m, nil
	}
	m, err := analysis.ExportData(".", paths...)
	if err != nil {
		return nil, err
	}
	exportCache.m[key] = m
	return m, nil
}
