package chaos

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/failure"
)

// KnownBad builds the deliberately mis-configured demonstration scenario:
// an F²Tree whose backup routes use the §II-B equal-prefix ablation (both
// static routes share one prefix, so ECMP can bounce packets between two
// failure-adjacent switches) hit by the paper's C4 condition — the two
// adjacent downlinks into the destination ToR fail together. With the
// oracle budget tightened to fast-reroute grade (200 ms), the forwarding
// loop that lives until OSPF reconverges becomes a loop-oracle violation.
//
// Whether the probe flow's ECMP hash actually bounces between the two
// failure-adjacent switches depends on the run seed, so KnownBad searches
// seeds deterministically until the loop manifests, then returns that
// scenario padded with two decoy faults (a far-away gray window and an
// LSA delay) for the shrinker to strip. The result is fully replayable.
func KnownBad(ports int) (*Scenario, error) {
	for seed := int64(1); seed <= 64; seed++ {
		sc, err := knownBadCandidate(ports, seed)
		if err != nil {
			return nil, err
		}
		v, err := RunScenario(sc)
		if err != nil {
			return nil, err
		}
		for _, viol := range v.Violations {
			if viol.Oracle == "loop" {
				return sc, nil
			}
		}
	}
	return nil, fmt.Errorf("chaos: no seed ≤ 64 hashes the demo flow into the equal-prefix loop")
}

// knownBadCandidate derives the C4 link pair from the probe flow's actual
// forwarding path under the given seed (ECMP decides which aggregation
// switch carries the flow) and emits the two link-down faults plus decoys.
func knownBadCandidate(ports int, seed int64) (*Scenario, error) {
	sc := &Scenario{
		Scheme:            string(exp.SchemeF2Tree),
		Ports:             ports,
		Control:           exp.ControlOSPF,
		Seed:              seed,
		BudgetMs:          200,
		EqualPrefixBackup: true,
		Flows:             []exp.Flow{{Src: "leftmost", Dst: "rightmost"}},
	}
	r, err := setup(sc, RunOpts{})
	if err != nil {
		return nil, err
	}
	fr := r.flows[0]
	links, err := failure.LinksOnPath(r.lab.Net, failure.C4, fr.Src, fr.Source.FlowKey())
	if err != nil {
		return nil, fmt.Errorf("chaos: deriving C4 links: %w", err)
	}
	for _, id := range links {
		l := r.tp.Link(id)
		sc.Faults = append(sc.Faults, Fault{
			Kind: FaultLinkDown, AtMs: 500,
			A: r.tp.Node(l.A).Name, B: r.tp.Node(l.B).Name,
		})
	}
	path, err := r.lab.Net.PathTrace(fr.Src, fr.Source.FlowKey())
	if err != nil {
		return nil, fmt.Errorf("chaos: tracing demo flow: %w", err)
	}
	// Decoy faults the shrinker should prove irrelevant: gray loss against
	// the reverse direction of the flow's first fabric hop (a one-way flow
	// sends nothing that way) and a mild LSA delay. Their windows close by
	// 450 ms so their disturbed spans (end + 200 ms budget) still end with
	// the C4 window and cannot excuse the loop they did not cause.
	sc.Faults = append(sc.Faults,
		Fault{
			Kind: FaultGray, AtMs: 300, EndMs: 450, Prob: 0.5,
			A: r.tp.Node(path.Nodes[2]).Name, B: r.tp.Node(path.Nodes[1]).Name,
		},
		Fault{Kind: FaultLSADelay, AtMs: 250, EndMs: 450, DelayMs: 30},
	)
	return sc, nil
}
