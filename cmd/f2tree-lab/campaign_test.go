package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCampaignRejectsBadInput(t *testing.T) {
	var out, errw strings.Builder
	for _, args := range [][]string{
		{"-badflag"},
		{"extra-arg"},
		{"-preset", "nonsense"},
		{"-kind", "nonsense"},
		{"-conditions", "C99"},
		{"-ports", "eight"},
		{"-channels", "one"},
		{"-kind", "detect", "-mechanisms", "magic"},
		{"-kind", "detect", "-detectors", "oracle"},
		{"-kind", "detect", "-conditions", "C99"},
	} {
		err := run(append([]string{"campaign"}, args...), nil, &out, &errw)
		if err == nil {
			t.Errorf("run(%v) accepted", args)
			continue
		}
		// Were the verb not dispatched, the experiment runner would refuse
		// "campaign" as an unknown experiment: name the verb's own check.
		if args[0] == "extra-arg" && !strings.Contains(err.Error(), "unexpected arguments") {
			t.Errorf("run(%v): error %q does not come from the campaign verb's argument check", args, err)
		}
	}
}

func TestExpandFlagsMatrix(t *testing.T) {
	specs, err := expandFlags("", "recovery", "fattree,f2tree", "8", "C1,C4", "ospf", "1",
		"", "", 2, 42, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// 2 schemes × 2 conditions × 2 reps.
	if len(specs) != 8 {
		t.Fatalf("specs = %d, want 8", len(specs))
	}
	// A detect matrix narrowed on every axis: 1 mechanism × 1 detector ×
	// 2 conditions × 2 reps.
	specs, err = expandFlags("", "detect", "f2tree-dual", "6", "C1,flap-storm", "",
		"1", "gr", "bfd", 2, 42, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("detect specs = %d, want 4", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
	}
	presets := []string{"fig4", "fig6", "smoke", "detectors"}
	for _, preset := range presets {
		specs, err := expandFlags(preset, "", "", "", "", "", "", "", "", 0, 42, 0, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if len(specs) == 0 {
			t.Fatalf("%s: empty", preset)
		}
	}
	// A rejected preset's error names every accepted one.
	_, err = expandFlags("fig5", "", "", "", "", "", "", "", "", 0, 42, 0, 0, false)
	if err == nil {
		t.Fatal("preset fig5 accepted")
	}
	for _, preset := range presets {
		if !strings.Contains(err.Error(), preset) {
			t.Errorf("error %q omits accepted preset %s", err, preset)
		}
	}
}

func TestSmokeCampaignAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("4 recovery runs")
	}
	dir := t.TempDir()
	store := filepath.Join(dir, "smoke.jsonl")
	var out, errw strings.Builder
	args := []string{"campaign", "-preset", "smoke", "-j", "2", "-q", "-out", store}
	if err := run(args, nil, &out, &errw); err != nil {
		t.Fatalf("smoke campaign: %v\nstdout: %s\nstderr: %s", err, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "campaign: 4 runs (0 skipped via resume), 0 failed") {
		t.Fatalf("unexpected summary: %s", out.String())
	}
	if !strings.Contains(out.String(), "recovery/fattree/C1") {
		t.Fatalf("summary table missing cells: %s", out.String())
	}

	// The store has 4 JSONL records; the aggregate file exists alongside.
	f, err := os.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if rec["status"] != "ok" {
			t.Fatalf("run failed: %v", rec)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("store has %d records, want 4", lines)
	}
	checkSmokeAggregate(t, filepath.Join(dir, "smoke.agg.jsonl"))

	// Re-invocation resumes: everything is skipped, nothing re-runs, and
	// the aggregate is rewritten from the store's records. Go picks a new
	// map iteration order each time, and with two groups a map-order
	// emission swaps the lines only now and then, so resume repeatedly.
	for i := 0; i < 20; i++ {
		out.Reset()
		if err := run(args, nil, &out, &errw); err != nil {
			t.Fatalf("resumed campaign: %v", err)
		}
		if !strings.Contains(out.String(), "(4 skipped via resume)") {
			t.Fatalf("resume did not skip completed runs: %s", out.String())
		}
		checkSmokeAggregate(t, filepath.Join(dir, "smoke.agg.jsonl"))
	}
}

// smokeAggDigest is the sha256 of the smoke preset's .agg.jsonl (seed 42).
// Aggregates are a pure function of the specs and their metrics, so the
// bytes, line order included, must not depend on map iteration order or
// on which worker finished first.
const smokeAggDigest = "572ca9afa9aca97214da85a74d68dc25fcfff4c702d8f50e77ea4d39047eca6d"

func checkSmokeAggregate(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("aggregate file missing: %v", err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != smokeAggDigest {
		t.Errorf("smoke aggregate digest = %s, want %s\n%s", got, smokeAggDigest, raw)
	}
}
