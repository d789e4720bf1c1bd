package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/topo"
)

// The detector-comparison experiment: how fast does each recovery
// mechanism restore connectivity on a dual-ToR production fabric, under
// each failure condition, and how does the failure detector (fixed-delay
// vs adaptive BFD) shift the distributions? Each cell is one chaos
// scenario judged by the four invariant oracles; the recovery time is the
// probe flows' longest delivery gap — the blackhole window an operator
// would see.

// Recovery mechanisms compared by the detector experiment.
const (
	// MechF2Tree is the paper's scheme: OSPF with F²Tree backup routes.
	MechF2Tree = "f2tree"
	// MechGR is BGP with graceful-restart helpers and no fast reroute.
	MechGR = "gr"
	// MechReconv is plain BGP reconvergence: no GR, no fast reroute.
	MechReconv = "reconv"
)

// DetectorMechanisms lists the mechanisms in report order.
func DetectorMechanisms() []string { return []string{MechF2Tree, MechGR, MechReconv} }

// DetectorModes lists the detector models in report order.
func DetectorModes() []string { return []string{detect.ModeFixed, detect.ModeBFD} }

// DetectorConditions lists the failure conditions in report order: the
// paper's Table IV catalog plus the production-churn faults this package
// adds (correlated detector flapping, control-plane-only crash, detector
// false positive) and a seeded random failure mix.
func DetectorConditions() []string {
	out := make([]string, 0, 11)
	for _, c := range failure.AllConditions() {
		out = append(out, c.String())
	}
	return append(out, FaultFlapStorm, FaultCtrlCrash, FaultFalseDetect, "rand")
}

// DetectorCell is the coordinate of one detector-comparison run. Its
// seed — and therefore its result — is a pure function of these fields.
type DetectorCell struct {
	Scheme    string `json:"scheme"`
	Ports     int    `json:"ports"`
	Mechanism string `json:"mechanism"`
	Detector  string `json:"detector"`
	Condition string `json:"condition"`
	BaseSeed  int64  `json:"baseSeed"`
	Rep       int    `json:"rep"`
}

// Seed derives the cell's RNG seed via the shared convention.
func (c DetectorCell) Seed() int64 {
	return exp.DetectSeed(c.BaseSeed, exp.Scheme(c.Scheme), c.Ports,
		c.Mechanism, c.Detector, c.Condition, c.Rep)
}

// DetectorResult is one cell's outcome.
type DetectorResult struct {
	Cell DetectorCell `json:"cell"`
	// RecoveryMs is the longest delivery gap across the probe flows —
	// the blackhole window the mechanism left open.
	RecoveryMs int64 `json:"recoveryMs"`
	// GapsMs is the per-flow longest delivery gap.
	GapsMs []int64 `json:"gapsMs"`
	// FalseDowns counts detector verdicts against healthy links.
	FalseDowns uint64 `json:"falseDowns,omitempty"`
	// Violations counts oracle findings (0 = all four oracles passed).
	Violations int    `json:"violations"`
	TraceHash  string `json:"traceHash"`
}

// detectAt is when the condition strikes (matches Fig 2's 380 ms shape,
// rounded for windowed faults).
const detectAt = 300

// detectorScenario builds the cell's chaos scenario. The base scenario
// (mechanism, detector, flows, seed) is fixed first; condition faults
// that depend on the flow's forwarding path (C1–C7, ctrl-crash,
// false-detect) are resolved against a converged throwaway lab built
// from that same base, so the injected links are exactly the ones the
// real run's probe flow crosses.
func detectorScenario(cell DetectorCell) (*Scenario, error) {
	sc := &Scenario{
		Scheme: cell.Scheme,
		Ports:  cell.Ports,
		Seed:   cell.Seed(),
	}
	switch cell.Mechanism {
	case MechF2Tree:
		sc.Control = exp.ControlOSPF
	case MechGR:
		sc.Control = exp.ControlBGP
		sc.DisableFastReroute = true
		sc.GR = &bgp.GRSpec{}
	case MechReconv:
		sc.Control = exp.ControlBGP
		sc.DisableFastReroute = true
	default:
		return nil, fmt.Errorf("chaos: unknown mechanism %q", cell.Mechanism)
	}
	switch cell.Detector {
	case detect.ModeFixed, "":
	case detect.ModeBFD:
		sc.Detector = &detect.Spec{Mode: detect.ModeBFD}
	default:
		return nil, fmt.Errorf("chaos: unknown detector %q", cell.Detector)
	}
	faults, err := conditionFaults(sc, cell)
	if err != nil {
		return nil, err
	}
	sc.Faults = faults
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: detector cell %+v: %w", cell, err)
	}
	return sc, nil
}

// conditionFaults renders the cell's condition as named faults.
func conditionFaults(sc *Scenario, cell DetectorCell) ([]Fault, error) {
	switch cell.Condition {
	case FaultFlapStorm:
		pod, _, err := pathAnchors(sc)
		if err != nil {
			return nil, err
		}
		return []Fault{{Kind: FaultFlapStorm, AtMs: detectAt, EndMs: detectAt + 600,
			Pod: pod, PeriodMs: 60}}, nil
	case FaultCtrlCrash:
		_, sx, err := pathAnchors(sc)
		if err != nil {
			return nil, err
		}
		return []Fault{{Kind: FaultCtrlCrash, AtMs: detectAt, EndMs: detectAt + 1000,
			Node: sx}}, nil
	case FaultFalseDetect:
		links, tp, err := pathConditionLinks(sc, failure.C1)
		if err != nil {
			return nil, err
		}
		a, b := linkNames(tp, links[0])
		return []Fault{{Kind: FaultFalseDetect, AtMs: detectAt, EndMs: detectAt + 500,
			A: a, B: b}}, nil
	case "rand":
		return randFaults(sc)
	}
	// The label is a seed coordinate, so only the canonical spelling names
	// the cell.
	cond, err := failure.ParseCondition(cell.Condition)
	if err != nil || cond.String() != cell.Condition {
		return nil, fmt.Errorf("chaos: unknown condition %q", cell.Condition)
	}
	links, tp, err := pathConditionLinks(sc, cond)
	if err != nil {
		return nil, err
	}
	var out []Fault
	for _, id := range links {
		a, b := linkNames(tp, id)
		out = append(out, Fault{Kind: FaultLinkDown, AtMs: detectAt, A: a, B: b})
	}
	return out, nil
}

// tempRun converges a throwaway lab for the faultless base scenario.
func tempRun(sc *Scenario) (*run, error) {
	tmp := *sc
	tmp.Faults = nil
	return setup(&tmp, RunOpts{})
}

// pathConditionLinks computes the Table IV condition's link set relative
// to the converged path of the first probe flow.
func pathConditionLinks(sc *Scenario, cond failure.Condition) ([]topo.LinkID, *topo.Topology, error) {
	r, err := tempRun(sc)
	if err != nil {
		return nil, nil, err
	}
	fr := r.flows[0]
	links, err := failure.LinksOnPath(r.lab.Net, cond, fr.Src, fr.Source.FlowKey())
	if err != nil {
		return nil, nil, err
	}
	if len(links) == 0 {
		return nil, nil, fmt.Errorf("chaos: %s yields no links", cond)
	}
	return links, r.tp, nil
}

// pathAnchors returns the probe path's source-side pod and the name of
// its downward switch Sx (the agg the flow descends through).
func pathAnchors(sc *Scenario) (pod int, sx string, err error) {
	r, err := tempRun(sc)
	if err != nil {
		return 0, "", err
	}
	fr := r.flows[0]
	path, err := r.lab.Net.PathTrace(fr.Src, fr.Source.FlowKey())
	if err != nil {
		return 0, "", err
	}
	if len(path.Nodes) < 4 {
		return 0, "", fmt.Errorf("chaos: probe path too short (%d nodes)", len(path.Nodes))
	}
	srcToR := path.Nodes[1]
	downSx := path.Nodes[len(path.Nodes)-3]
	return r.tp.Node(srcToR).Pod, r.tp.Node(downSx).Name, nil
}

// randFaults draws three staggered, windowed fabric link-downs from the
// cell seed — the random failure mix, always self-repairing.
func randFaults(sc *Scenario) ([]Fault, error) {
	r, err := tempRun(sc)
	if err != nil {
		return nil, err
	}
	var fabric []topo.Link
	for _, l := range r.tp.Links {
		if l.Removed || l.Class == topo.HostLink {
			continue
		}
		fabric = append(fabric, l)
	}
	if len(fabric) == 0 {
		return nil, fmt.Errorf("chaos: no fabric links for rand condition")
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	var out []Fault
	for i := 0; i < 3; i++ {
		l := fabric[rng.Intn(len(fabric))]
		at := int64(detectAt + 200*i)
		out = append(out, Fault{Kind: FaultLinkDown, AtMs: at, EndMs: at + 400,
			A: r.tp.Nodes[l.A].Name, B: r.tp.Nodes[l.B].Name})
	}
	return out, nil
}

func linkNames(tp *topo.Topology, id topo.LinkID) (a, b string) {
	l := tp.Link(id)
	return tp.Nodes[l.A].Name, tp.Nodes[l.B].Name
}

// RunDetectorCell executes one cell.
func RunDetectorCell(cell DetectorCell) (*DetectorResult, error) {
	sc, err := detectorScenario(cell)
	if err != nil {
		return nil, err
	}
	v, err := RunScenario(sc)
	if err != nil {
		return nil, err
	}
	res := &DetectorResult{
		Cell:       cell,
		FalseDowns: v.FalseDowns,
		Violations: len(v.Violations),
		TraceHash:  v.TraceHash,
	}
	for _, f := range v.Flows {
		res.GapsMs = append(res.GapsMs, f.MaxGapMs)
		if f.MaxGapMs > res.RecoveryMs {
			res.RecoveryMs = f.MaxGapMs
		}
	}
	return res, nil
}
