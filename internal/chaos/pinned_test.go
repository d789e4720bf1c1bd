package chaos

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// TestControlPlaneCountsPinned pins how much simulated work one fixed OSPF
// scenario costs: events executed, SPF runs by kind, FIB installs by kind.
// The constants were captured before the dense SPF kernel replaced the
// map-based one, so a representation change that moves any decision point
// of the algorithm (when the incremental path bails, when a run counts as
// unchanged, when an install is a delta) fails here even if every trace
// hash still happens to match.
func TestControlPlaneCountsPinned(t *testing.T) {
	const (
		wantEvents                  = 826374
		wantFull, wantInc, wantSame = 269, 108, 54
		wantInstFull, wantInstDelta = 1, 376
	)
	sc := &Scenario{
		Scheme: "f2tree", Ports: 8, Control: exp.ControlOSPF, Seed: 15,
		Faults: []Fault{
			{Kind: FaultLinkDown, AtMs: 400, EndMs: 1900, A: "agg-p0-0", B: "tor-p0-0"},
			{Kind: FaultCrash, AtMs: 3500, EndMs: 5000, Node: "agg-p2-1"},
			{Kind: FaultPodBurst, AtMs: 7000, EndMs: 7600, Pod: 1},
			// The refresh at window end bumps sequence numbers only: the
			// adjacency-preserving ("unchanged") SPF path.
			{Kind: FaultLSADrop, AtMs: 20000, EndMs: 20100},
		},
	}
	var events uint64
	var full, inc, same, instFull, instDelta int
	v, err := RunScenarioOpts(sc, RunOpts{OnFinish: func(lab *core.Lab) {
		events = lab.Sim.EventsRun()
		full, inc, same = lab.Domain.SPFTotals()
		instFull, instDelta = lab.Domain.InstallTotals()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Violated() {
		t.Fatalf("pinned scenario violated: %+v", v.Violations)
	}
	if events != wantEvents {
		t.Errorf("Sim.EventsRun() = %d, want %d", events, wantEvents)
	}
	if full != wantFull || inc != wantInc || same != wantSame {
		t.Errorf("SPFTotals() = %d/%d/%d, want %d/%d/%d", full, inc, same, wantFull, wantInc, wantSame)
	}
	if instFull != wantInstFull || instDelta != wantInstDelta {
		t.Errorf("InstallTotals() = %d/%d, want %d/%d", instFull, instDelta, wantInstFull, wantInstDelta)
	}
}
