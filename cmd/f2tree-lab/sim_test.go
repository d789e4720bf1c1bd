package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const simDoc = `{
  "scheme": "f2tree", "ports": 8, "seed": 1,
  "flows": [{"src": "leftmost", "dst": "rightmost", "intervalUs": 1000}],
  "events": [{"atMs": 380, "action": "fail-condition", "condition": "C1", "flow": 0}]
}`

// runSimDoc runs the sim verb with doc on stdin.
func runSimDoc(doc string, args ...string) (string, error) {
	var out strings.Builder
	err := run(append([]string{"sim"}, args...), strings.NewReader(doc), &out, io.Discard)
	return out.String(), err
}

func TestSimFromStdin(t *testing.T) {
	out, err := runSimDoc(simDoc, "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "connectivityLossMs") {
		t.Fatalf("report missing metrics: %s", out)
	}
}

func TestSimWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := runSimDoc(simDoc, "-cpuprofile", cpu, "-memprofile", mem, "-"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestSimRejectsUsageErrors(t *testing.T) {
	if _, err := runSimDoc(""); err == nil {
		t.Fatal("no args accepted")
	}
	if _, err := runSimDoc("", "/does/not/exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := runSimDoc("{", "-"); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
