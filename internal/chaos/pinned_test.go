package chaos

import (
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/exp"
)

// pinnedFaults is the schedule both halves of TestControlPlaneCountsPinned
// run on F²Tree N=8, seed 15.
func pinnedFaults() []Fault {
	return []Fault{
		{Kind: FaultLinkDown, AtMs: 400, EndMs: 1900, A: "agg-p0-0", B: "tor-p0-0"},
		{Kind: FaultCrash, AtMs: 3500, EndMs: 5000, Node: "agg-p2-1"},
		{Kind: FaultPodBurst, AtMs: 7000, EndMs: 7600, Pod: 1},
	}
}

// TestControlPlaneCountsPinned pins how much simulated work one fixed
// scenario costs. Under OSPF: events executed, SPF runs by kind, FIB
// installs by kind and the trace hash (the scenario ends in an lsa-drop
// window, so a FloodFilter is installed for the whole run). Under BGP (plain, graceful restart, LLGR): events
// executed, UPDATEs received over all switches and the trace hash. Each
// constant was captured while the control plane it guards was still
// map-based, so a representation change that moves any decision point of
// the algorithm (when the incremental path bails, when a run counts as
// unchanged, when an install is a delta; which message is delivered,
// dropped or reordered) fails here even if every trace hash still happens
// to match.
func TestControlPlaneCountsPinned(t *testing.T) {
	t.Run("ospf", func(t *testing.T) {
		const (
			// 826,374 while every LSA hop was an event of its own; the 54,956
			// fewer are hops that now ride in their flood call's event. Any
			// other number means a record was scheduled for a flood with no
			// surviving hop, or a same-instant group was split.
			wantEvents                  = 771418
			wantFull, wantInc, wantSame = 269, 108, 54
			wantInstFull, wantInstDelta = 1, 376
			wantHash                    = "b6b4e63eb781"
		)
		sc := &Scenario{
			Scheme: "f2tree", Ports: 8, Control: exp.ControlOSPF, Seed: 15,
			// The refresh at window end bumps sequence numbers only: the
			// adjacency-preserving ("unchanged") SPF path.
			Faults: append(pinnedFaults(), Fault{Kind: FaultLSADrop, AtMs: 20000, EndMs: 20100}),
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
		if !strings.HasPrefix(v.TraceHash, wantHash) {
			t.Errorf("TraceHash = %s, want prefix %s", v.TraceHash, wantHash)
		}
	})
	for _, tc := range []struct {
		name       string
		gr         *bgp.GRSpec
		wantEvents uint64
		wantRx     int
		wantHash   string
	}{
		{"bgp", nil, 392694, 2753, "9ab040cd24d3"},
		{"bgp-gr", &bgp.GRSpec{RestartMs: 1000}, 388486, 776, "43e4978dae46"},
		{"bgp-llgr", &bgp.GRSpec{RestartMs: 500, LongLived: true, StaleMs: 2000}, 390909, 1858, "a3acb07b349d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &Scenario{
				Scheme: "f2tree", Ports: 8, Control: exp.ControlBGP, Seed: 15, GR: tc.gr,
				Faults: pinnedFaults(),
			}
			var events uint64
			rx := 0
			v, err := RunScenarioOpts(sc, RunOpts{OnFinish: func(lab *core.Lab) {
				events = lab.Sim.EventsRun()
				for _, id := range lab.Topo.LiveNodes() {
					if inst := lab.BGP.Instance(id); inst != nil {
						rx += inst.UpdatesReceived()
					}
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if v.Violated() {
				t.Fatalf("pinned scenario violated: %+v", v.Violations)
			}
			if events != tc.wantEvents {
				t.Errorf("Sim.EventsRun() = %d, want %d", events, tc.wantEvents)
			}
			if rx != tc.wantRx {
				t.Errorf("sum of UpdatesReceived() = %d, want %d", rx, tc.wantRx)
			}
			if !strings.HasPrefix(v.TraceHash, tc.wantHash) {
				t.Errorf("TraceHash = %s, want prefix %s", v.TraceHash, tc.wantHash)
			}
		})
	}
	// Centralized: events executed, global recomputations and the trace
	// hash, captured while the controller's search was map-based. The
	// controller has no daemon to crash, so the crash fault is left out.
	t.Run("centralized", func(t *testing.T) {
		const (
			wantEvents = 230855
			wantRecomp = 4
			wantHash   = "5ab06c6511f9"
		)
		var faults []Fault
		for _, f := range pinnedFaults() {
			if f.Kind != FaultCrash {
				faults = append(faults, f)
			}
		}
		sc := &Scenario{
			Scheme: "f2tree", Ports: 8, Control: exp.ControlCentralized, Seed: 15,
			Faults: faults,
		}
		var events uint64
		recomp := 0
		v, err := RunScenarioOpts(sc, RunOpts{OnFinish: func(lab *core.Lab) {
			events = lab.Sim.EventsRun()
			recomp = lab.Controller.Recomputations()
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
		if recomp != wantRecomp {
			t.Errorf("Recomputations() = %d, want %d", recomp, wantRecomp)
		}
		if !strings.HasPrefix(v.TraceHash, wantHash) {
			t.Errorf("TraceHash = %s, want prefix %s", v.TraceHash, wantHash)
		}
	})
}
