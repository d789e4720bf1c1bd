package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadFixturePkg loads one testdata/src fixture directory as a
// type-checked *analysis.Package, the shape Audit consumes.
func loadFixturePkg(t *testing.T, name string) *analysis.Package {
	t.Helper()
	dir := fixture(name)
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
	paths := make([]string, 0, len(importSet))
	for p := range importSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports, err := analysis.ExportData(".", paths...)
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	pkgPath := "fixture/" + name
	pkg, info, err := analysis.Check(pkgPath, fset, files, analysis.ExportDataImporter(fset, exports))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &analysis.Package{
		ImportPath: pkgPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		TypesInfo:  info,
	}
}

func verbs(ds []analysis.Directive) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Verb
	}
	return out
}

// TestAuditDefects checks the audit fixture: one live suppression, one
// unjustified one, one stale one, one typo'd verb, the twelve retired verbs
// and one marker.
func TestAuditDefects(t *testing.T) {
	pkg := loadFixturePkg(t, "audit")
	res, err := analysis.Audit([]*analysis.Package{pkg}, analysis.RunOptions{})
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if res.Clean() {
		t.Fatalf("audit fixture should not be clean; directives: %v", verbs(res.Directives))
	}
	if got := len(res.Directives); got != 17 {
		t.Errorf("inventoried %d directives, want 17: %v", got, verbs(res.Directives))
	}
	if got := verbs(res.Stale); len(got) != 1 || got[0] != "wallclock" {
		t.Errorf("stale = %v, want exactly [wallclock]", got)
	}
	wantUnknown := "wallclok shardlocal shardport blocking lockorder " +
		"sharedstate epochguarded epoch hotpath alloc noepoch handle epochbump"
	if got := strings.Join(verbs(res.Unknown), " "); got != wantUnknown {
		t.Errorf("unknown = [%s], want exactly [%s]", got, wantUnknown)
	}
	if got := verbs(res.Unjustified); len(got) != 1 || got[0] != "unordered" {
		t.Errorf("unjustified = %v, want exactly [unordered]", got)
	}
	var marker *analysis.Directive
	for i := range res.Directives {
		if res.Directives[i].Kind == analysis.KindMarker {
			marker = &res.Directives[i]
		}
	}
	if marker == nil || marker.Verb != "pooled" {
		t.Errorf("expected one pooled marker in the inventory, got %+v", marker)
	}
	for _, d := range res.Stale {
		if !d.Stale {
			t.Errorf("directive in Stale view not marked stale: %+v", d)
		}
		if !strings.Contains(d.Describe(), "wallclock") {
			t.Errorf("Describe() should mention the verb: %q", d.Describe())
		}
	}
}

// TestAuditClean verifies a fixture whose directives are all live (the
// poolcheck fixture) audits clean.
func TestAuditClean(t *testing.T) {
	pkg := loadFixturePkg(t, "poolcheck")
	res, err := analysis.Audit([]*analysis.Package{pkg}, analysis.RunOptions{})
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !res.Clean() {
		t.Errorf("poolcheck fixture should audit clean; stale=%v unknown=%v unjustified=%v",
			verbs(res.Stale), verbs(res.Unknown), verbs(res.Unjustified))
	}
	if len(res.Directives) == 0 {
		t.Errorf("expected a non-empty directive inventory")
	}
}
