package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote. run() prints findings and JSON to the real stdout, so the
// output-shape tests need the redirect.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reading captured stdout: %v", err)
	}
	return string(out)
}

func TestListExitsClean(t *testing.T) {
	var code int
	out := captureStdout(t, func() { code = run([]string{"-list"}) })
	if code != 0 {
		t.Errorf("run(-list) = %d, want 0", code)
	}
	// The gate is exactly these three; -list and the usage text both print
	// the registry, so a change to the set shows up here.
	want := []string{"mapiter", "poolcheck", "simclock"}
	if got := analyzerNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("registered analyzers = %v, want %v", got, want)
	}
	section, _, _ := strings.Cut(out, "in-scope packages:")
	var listed []string
	for _, line := range strings.Split(section, "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			listed = append(listed, f[0])
		}
	}
	if !reflect.DeepEqual(listed, want) {
		t.Errorf("-list printed analyzers %v, want %v", listed, want)
	}
}

func TestCleanPackagesPass(t *testing.T) {
	args := []string{"-novet", "repro/internal/sim", "repro/internal/fib", "repro/internal/detsort"}
	if code := run(args); code != 0 {
		t.Errorf("run(%v) = %d, want 0", args, code)
	}
}

func TestDetectsViolations(t *testing.T) {
	// The analyzer fixtures double as end-to-end violation corpora: with
	// -all the scope filter is lifted and each must fail the gate.
	for _, dir := range []string{
		"../../internal/analysis/testdata/src/mapiter",
		"../../internal/analysis/testdata/src/simclock",
		"../../internal/analysis/testdata/src/poolcheck",
	} {
		args := []string{"-novet", "-all", dir}
		if code := run(args); code != 1 {
			t.Errorf("run(%v) = %d, want 1", args, code)
		}
	}
}

func TestBadPatternFails(t *testing.T) {
	if code := run([]string{"-novet", "repro/internal/nosuchpackage"}); code != 2 {
		t.Errorf("run on missing package = %d, want 2", code)
	}
}

func TestNoScopedPackagesFails(t *testing.T) {
	// The fixture package loads fine but is not in scope; without -all a
	// run that analyzes nothing must not masquerade as a clean one.
	args := []string{"-novet", "../../internal/analysis/testdata/src/mapiter"}
	if code := run(args); code != 2 {
		t.Errorf("run(%v) = %d, want 2 (zero packages in scope)", args, code)
	}
}

func TestJSONFindings(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-novet", "-all", "-json", "../../internal/analysis/testdata/src/mapiter"})
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.Count == 0 || len(rep.Findings) != rep.Count {
		t.Fatalf("count = %d with %d findings, want a consistent non-zero report", rep.Count, len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
		t.Errorf("finding fields incomplete: %+v", f)
	}
}

func TestJSONCleanEmitsEmptyList(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-novet", "-json", "repro/internal/detsort"})
	})
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var rep struct {
		Findings json.RawMessage `json:"findings"`
		Count    int             `json:"count"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if string(rep.Findings) == "null" {
		t.Error("clean report encodes findings as null, want []")
	}
	if rep.Count != 0 {
		t.Errorf("count = %d, want 0", rep.Count)
	}
}

func TestAuditCleanPackages(t *testing.T) {
	args := []string{"-audit", "repro/internal/sim", "repro/internal/fib", "repro/internal/detsort"}
	var code int
	out := captureStdout(t, func() { code = run(args) })
	if code != 0 {
		t.Errorf("run(%v) = %d, want 0", args, code)
	}
	if out == "" {
		t.Error("audit of annotated packages printed no inventory")
	}
}

func TestAuditDetectsDefects(t *testing.T) {
	// The audit fixture contains a stale suppression, unknown verbs (a
	// typo and every retired analyzer's verbs) and an unjustified
	// directive; the audit must fail on it.
	args := []string{"-all", "-audit", "../../internal/analysis/testdata/src/audit"}
	var code int
	out := captureStdout(t, func() { code = run(args) })
	if code != 1 {
		t.Fatalf("run(%v) = %d, want 1\n%s", args, code, out)
	}
}

func TestAuditJSONShape(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-all", "-audit", "-json", "../../internal/analysis/testdata/src/audit"})
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var res analysis.AuditResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("audit output is not valid JSON: %v\n%s", err, out)
	}
	if len(res.Directives) == 0 {
		t.Error("audit JSON has an empty directive inventory")
	}
	if len(res.Stale) == 0 || len(res.Unknown) == 0 || len(res.Unjustified) == 0 {
		t.Errorf("audit JSON missing defect classes: stale=%d unknown=%d unjustified=%d",
			len(res.Stale), len(res.Unknown), len(res.Unjustified))
	}
}
