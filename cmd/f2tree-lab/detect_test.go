package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

func TestDetectRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-badflag"},
		{"extra-arg"},
		{"-mechanisms", "magic"},
		{"-detectors", "oracle"},
		{"-conditions", "C99"},
		{"-ports", "5"}, // F²Tree needs even n ≥ 6
	} {
		if _, err := runOut(append([]string{"detect"}, args...)...); err == nil {
			t.Errorf("detect %v accepted", args)
		}
	}
}

// detectResults runs the detect verb and decodes its -out artifact.
func detectResults(t *testing.T, args ...string) (string, []byte, []chaos.DetectorResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "detect.json")
	out, err := runOut(append([]string{"detect", "-out", path}, args...)...)
	if err != nil {
		t.Fatalf("detect %v: %v\n%s", args, err, out)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []chaos.DetectorResult
	if err := json.Unmarshal(blob, &results); err != nil {
		t.Fatal(err)
	}
	return out, blob, results
}

// TestDetectDoubleWritesResults runs a one-cell sweep with -double and
// checks the JSON artifact round-trips.
func TestDetectDoubleWritesResults(t *testing.T) {
	out, _, results := detectResults(t, "-ports", "6", "-mechanisms", "f2tree",
		"-detectors", "fixed", "-conditions", "C1", "-double")
	if !strings.Contains(out, "double-run: 1 cells byte-identical") {
		t.Fatalf("double-run line missing: %s", out)
	}
	if !strings.Contains(out, "detect: 1 cells, 0 oracle violation(s)") {
		t.Fatalf("summary line missing: %s", out)
	}
	if len(results) != 1 || results[0].RecoveryMs <= 0 || results[0].TraceHash == "" {
		t.Fatalf("malformed results: %+v", results)
	}
}

// TestDetectOrderAtAnyParallelism: the sweep returns the same bytes on one
// worker and on four, in mechanism × detector × condition × rep order.
func TestDetectOrderAtAnyParallelism(t *testing.T) {
	args := []string{"-ports", "6", "-mechanisms", "f2tree,gr", "-detectors", "fixed,bfd",
		"-conditions", "C1,C2", "-reps", "2", "-summary=false"}
	_, serial, results := detectResults(t, append(args, "-j", "1")...)
	_, parallel, _ := detectResults(t, append(args, "-j", "4")...)
	if string(serial) != string(parallel) {
		t.Fatal("-j 1 and -j 4 results differ")
	}
	if len(results) != 16 {
		t.Fatalf("want 16 cells, got %d", len(results))
	}
	i := 0
	for _, mech := range []string{"f2tree", "gr"} {
		for _, det := range []string{"fixed", "bfd"} {
			for _, cond := range []string{"C1", "C2"} {
				for rep := 0; rep < 2; rep++ {
					c := results[i].Cell
					if c.Mechanism != mech || c.Detector != det || c.Condition != cond || c.Rep != rep {
						t.Fatalf("cell %d is %+v, want %s/%s/%s rep %d", i, c, mech, det, cond, rep)
					}
					if results[i].RecoveryMs <= 0 {
						t.Fatalf("cell %+v reports no recovery gap", c)
					}
					i++
				}
			}
		}
	}
}
