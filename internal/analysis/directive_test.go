package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

// lineOf returns the position of the first occurrence of marker in src as
// a token.Pos within the parsed file.
func posOf(t *testing.T, fset *token.FileSet, f *ast.File, line int) token.Pos {
	t.Helper()
	tf := fset.File(f.Pos())
	if line < 1 || line > tf.LineCount() {
		t.Fatalf("line %d out of range", line)
	}
	return tf.LineStart(line)
}

// TestDirectiveLinesKeepsEveryDirectiveOnALine is the regression test for
// the map[int]string → map[int][]string fix: two directives whose
// comments end on the same line must both be recorded — a marker stacked
// with a suppression, /*f2tree:pooled*/ /*f2tree:retained ...*/.
func TestDirectiveLinesKeepsEveryDirectiveOnALine(t *testing.T) {
	src := `package p

/*f2tree:pooled*/ /*f2tree:retained the pool's own sentinel*/
type T struct{}
`
	fset, f := parseOne(t, src)
	dirs := directiveLines(fset, f)
	if got := len(dirs[3]); got != 2 {
		t.Fatalf("line 3 has %d directives, want 2: %v", got, dirs[3])
	}
	typePos := posOf(t, fset, f, 4)
	for _, verb := range []string{VerbPooled, VerbRetained} {
		if !suppressed(dirs, fset, typePos, verb) {
			t.Errorf("verb %q on the stacked line does not cover the type declaration", verb)
		}
	}
}

// TestDirectiveBlockComment covers /* f2tree:... */ comments, both inline
// on the flagged line and standalone above it.
func TestDirectiveBlockComment(t *testing.T) {
	src := `package p

func f(m map[int]int) {
	for k := range m { /* f2tree:unordered sums are commutative */
		_ = k
	}
	/* f2tree:wallclock frozen for test */
	_ = m
}
`
	fset, f := parseOne(t, src)
	dirs := directiveLines(fset, f)
	if !suppressed(dirs, fset, posOf(t, fset, f, 4), VerbUnordered) {
		t.Error("inline block-comment directive does not cover its own line")
	}
	if !suppressed(dirs, fset, posOf(t, fset, f, 8), VerbWallClock) {
		t.Error("standalone block-comment directive does not cover the line below")
	}
	if suppressed(dirs, fset, posOf(t, fset, f, 4), VerbWallClock) {
		t.Error("wrong verb must not suppress")
	}
}

// TestDirectiveAdjacencyAroundDocComments pins the placement contract: a
// directive written as the last line of a doc comment covers the
// declaration (it is on the line directly above), while a directive
// separated from the declaration by further doc lines does not — the
// window is exactly the line and the line above, so stale placements
// cannot silently suppress.
func TestDirectiveAdjacencyAroundDocComments(t *testing.T) {
	src := `package p

// T is documented.
//
//f2tree:pooled
type T struct{}

//f2tree:pooled
// U is documented; the directive is two lines up from the declaration.
type U struct{}
`
	fset, f := parseOne(t, src)
	dirs := directiveLines(fset, f)
	if !suppressed(dirs, fset, posOf(t, fset, f, 6), VerbPooled) {
		t.Error("directive on the last doc line does not cover the declaration")
	}
	if suppressed(dirs, fset, posOf(t, fset, f, 10), VerbPooled) {
		t.Error("directive above the doc comment must not cover the declaration two lines down")
	}
}

// TestDirectivesAreFilePrivate: a directive in one file of a package must
// not suppress findings at the same line number of a sibling file.
func TestDirectivesAreFilePrivate(t *testing.T) {
	srcA := `package p

//f2tree:unordered reason lives in file A
var A = 1
`
	srcB := `package p

var B = 2
`
	fset := token.NewFileSet()
	fa, err := parser.ParseFile(fset, "a.go", srcA, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse a.go: %v", err)
	}
	fb, err := parser.ParseFile(fset, "b.go", srcB, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse b.go: %v", err)
	}
	dirsA := directiveLines(fset, fa)
	dirsB := directiveLines(fset, fb)
	if !suppressed(dirsA, fset, posOf(t, fset, fa, 4), VerbUnordered) {
		t.Error("directive does not cover its own file's declaration")
	}
	if len(dirsB) != 0 {
		t.Errorf("file B inherited directives from file A: %v", dirsB)
	}
	if suppressed(dirsB, fset, posOf(t, fset, fb, 3), VerbUnordered) {
		t.Error("file A's directive suppressed a line in file B")
	}
}

// TestRootIdentChains covers rootIdent over chained index, star, selector
// and paren expressions — and the call-rooted case that must return nil.
func TestRootIdentChains(t *testing.T) {
	cases := []struct {
		expr string
		want string // "" = nil
	}{
		{"x", "x"},
		{"x.f", "x"},
		{"x[i]", "x"},
		{"*x", "x"},
		{"(x)", "x"},
		{"x.f[i].g", "x"},
		{"(*p).q", "p"},
		{"((m[k])).f", "m"},
		{"*x.f[i]", "x"},
		{"f().y", ""},
		{"m[k]().z", ""},
		{"1 + 2", ""},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.expr)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.expr, err)
		}
		id := rootIdent(e)
		got := ""
		if id != nil {
			got = id.Name
		}
		if got != c.want {
			t.Errorf("rootIdent(%q) = %q, want %q", c.expr, got, c.want)
		}
	}
}
