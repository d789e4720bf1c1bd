package campaign

import (
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/failure"
)

// testMatrix is a small but real recovery matrix: the k=4 testbed pair
// under two conditions, two seed replicates each, with a shortened horizon
// so the eight runs stay fast.
func testMatrix(seed int64) Matrix {
	return Matrix{
		Kind:       KindRecovery,
		Schemes:    []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Proto},
		Ports:      []int{4},
		Conditions: []failure.Condition{failure.C1},
		Reps:       2,
		BaseSeed:   seed,
		HorizonMS:  900,
	}
}

// TestCampaignByteIdenticalAcrossParallelism is the determinism
// regression the subsystem exists to uphold: the same matrix aggregated
// at -j 1 and -j 8 emits byte-identical JSONL, because seeds derive from
// specs and aggregation is completion-order-independent.
func TestCampaignByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("8 real recovery runs")
	}
	render := func(par int) string {
		out, err := Run(testMatrix(42).Expand(), ExperimentRunner(), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 {
			for _, r := range out.Results {
				if r.Status != StatusOK {
					t.Fatalf("run %s failed: %s", r.Spec.Key(), r.Error)
				}
			}
		}
		var b strings.Builder
		if err := WriteAggregateJSONL(&b, AggregateResults(out.Results)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	j1 := render(1)
	j8 := render(8)
	if j1 != j8 {
		t.Fatalf("aggregated JSONL differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", j1, j8)
	}
	if !strings.Contains(j1, "connectivity_loss_ms") {
		t.Fatalf("aggregate missing recovery metrics:\n%s", j1)
	}
}

// TestParallelFig4MatchesSerial pins that the worker count is not an
// input: Fig 4 on one worker (the cells one after the other, in matrix
// order) and on four renders the same bytes.
func TestParallelFig4MatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("24 recovery runs")
	}
	serial, err := RunFig4(42, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFig4(42, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("Fig 4 at -j 4 diverges from -j 1:\n--- j1 ---\n%s--- j4 ---\n%s",
			serial.String(), parallel.String())
	}
	if serial.Fig5String() != parallel.Fig5String() {
		t.Fatal("Fig 5 series at -j 4 diverge from -j 1")
	}
}

// TestChaosCampaignByteIdenticalAcrossParallelism extends the byte-identity
// guarantee to fuzzed chaos cells: scenario generation, the run and the
// oracle verdicts (including every trace hash) must be pure functions of
// the spec, independent of worker scheduling.
func TestChaosCampaignByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("6 chaos runs")
	}
	matrix := Matrix{
		Kind:     KindChaos,
		Schemes:  []exp.Scheme{exp.SchemeF2Tree},
		Ports:    []int{8},
		Controls: []string{exp.ControlOSPF, exp.ControlCentralized},
		Reps:     3,
		BaseSeed: 42,
	}
	render := func(par int) (agg string, hashes []string) {
		out, err := Run(matrix.Expand(), ExperimentRunner(), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Results {
			if r.Status != StatusOK {
				t.Fatalf("run %s failed: %s", r.Spec.Key(), r.Error)
			}
			oc, ok := out.Payloads[r.Spec.Hash()].(*ChaosOutcome)
			if !ok {
				t.Fatalf("run %s has no chaos payload", r.Spec.Key())
			}
			hashes = append(hashes, oc.Verdict.TraceHash)
		}
		var b strings.Builder
		if err := WriteAggregateJSONL(&b, AggregateResults(out.Results)); err != nil {
			t.Fatal(err)
		}
		return b.String(), hashes
	}
	agg1, h1 := render(1)
	agg8, h8 := render(8)
	if agg1 != agg8 {
		t.Fatalf("chaos aggregate differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", agg1, agg8)
	}
	if len(h1) != len(h8) {
		t.Fatalf("result counts differ: %d vs %d", len(h1), len(h8))
	}
	for i := range h1 {
		if h1[i] != h8[i] {
			t.Fatalf("trace hash %d differs between -j 1 and -j 8: %s vs %s", i, h1[i], h8[i])
		}
	}
	if !strings.Contains(agg1, "violations") {
		t.Fatalf("aggregate missing chaos metrics:\n%s", agg1)
	}
}
