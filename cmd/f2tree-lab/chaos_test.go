package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
)

func TestFuzzModeCleanMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("real chaos runs")
	}
	var out, errb bytes.Buffer
	err := run([]string{
		"chaos", "-n", "1", "-schemes", "f2tree", "-ports", "8",
		"-controls", "ospf,centralized", "-q", "-artifacts", t.TempDir(),
	}, nil, &out, &errb)
	if err != nil {
		t.Fatalf("fuzz mode failed: %v\n%s%s", err, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 violation(s)") {
		t.Fatalf("unexpected fuzz summary:\n%s", out.String())
	}
}

func TestReplayMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clean.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := &chaos.Scenario{
		Scheme: "f2tree", Ports: 8, Seed: 5,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultLinkDown, AtMs: 400, EndMs: 800, A: "agg-p0-0", B: "tor-p0-0"},
		},
	}
	if err := chaos.Write(f, sc); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out, errb bytes.Buffer
	if err := run([]string{"chaos", "-replay", path}, nil, &out, &errb); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sent") {
		t.Fatalf("replay printed no verdict:\n%s", out.String())
	}
}

func TestReplayModeViolatingScenarioExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the known-bad corpus scenario")
	}
	var out, errb bytes.Buffer
	err := run([]string{
		"chaos", "-replay", filepath.Join("..", "..", "internal", "chaos",
			"testdata", "equal-prefix-c4-shrunk.json"),
	}, nil, &out, &errb)
	if err == nil {
		t.Fatalf("replay of a violating scenario must fail\n%s", out.String())
	}
	if !strings.Contains(out.String(), "[loop]") {
		t.Fatalf("verdict does not show the loop violation:\n%s", out.String())
	}
}

func TestDemoMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the known-bad search and shrink")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"chaos", "-demo", "-artifacts", dir}, nil, &out, &errb); err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out.String())
	}
	shrunk := filepath.Join(dir, "equal-prefix-c4-shrunk.json")
	f, err := os.Open(shrunk)
	if err != nil {
		t.Fatalf("demo wrote no shrunk repro: %v", err)
	}
	defer f.Close()
	sc, err := chaos.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) > 3 {
		t.Fatalf("shrunk repro has %d faults, want ≤ 3", len(sc.Faults))
	}
}

// TestRejectsUnknownArgs: the chaos verb itself refuses a positional
// argument. Checking the message matters: were the verb not dispatched,
// the experiment runner would refuse "chaos" as an unknown experiment.
func TestRejectsUnknownArgs(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"chaos", "positional"}, nil, &out, &errb)
	if err == nil {
		t.Fatal("positional argument accepted")
	}
	if !strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("error %q does not come from the chaos verb's argument check", err)
	}
}

// TestFuzzResumedViolationFails: a violation recorded by an earlier run
// fails the resumed fuzz too, and its scenario, rebuilt from the spec's
// seed, is written as a repro. The store holds the only record, so no
// simulation runs (-shrink-runs 0 skips the shrink's).
func TestFuzzResumedViolationFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chaos.jsonl")
	spec := campaign.Spec{Kind: campaign.KindChaos, Scheme: "f2tree", Ports: 8, Control: "ospf", BaseSeed: 42}
	store, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(campaign.Result{
		Hash: spec.Hash(), Spec: spec, Seed: spec.Seed(), Status: campaign.StatusOK, Attempts: 1,
		Metrics: campaign.Metrics{"violations": 1, "transient_loops": 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err = run([]string{
		"chaos", "-n", "1", "-schemes", "f2tree", "-ports", "8", "-controls", "ospf",
		"-q", "-out", path, "-shrink-runs", "0",
	}, nil, &out, &errb)
	if err == nil {
		t.Fatalf("resumed violation accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "chaos: 1 scenarios (1 resumed), 1 violation(s), 2 transient loops excused") {
		t.Fatalf("unexpected fuzz summary:\n%s", out.String())
	}
	f, err := os.Open(filepath.Join(dir, "chaos-"+spec.Hash()+".json"))
	if err != nil {
		t.Fatalf("no repro written: %v", err)
	}
	defer f.Close()
	sc, err := chaos.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != spec.Seed() || len(sc.Faults) == 0 {
		t.Fatalf("repro is not the spec's scenario: seed %d, %d faults", sc.Seed, len(sc.Faults))
	}
}
