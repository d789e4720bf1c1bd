// Package chaos is the adversarial counterpart of internal/failure: where
// failure injects the paper's clean bidirectional link-down conditions,
// chaos layers production-grade messiness on top — gray (probabilistic)
// loss, unidirectional failures, link flapping, correlated pod-wide
// bursts, and control-plane faults (dropped/delayed LSA floods, suppressed
// failure detectors, switch crash+restart with FIB wipe).
//
// Every run is watched by four invariant oracles (oracles.go): forwarding
// loops (TTL-expiry classification), packet conservation at quiesce,
// blackhole windows bounded by the control plane's detection+reroute
// budget, and post-convergence FIB consistency against an offline
// shortest-path oracle. A seeded scenario fuzzer (fuzz.go) samples
// topologies × fault schedules × control planes and a delta-debugging
// shrinker (shrink.go) minimizes any violating schedule into a replayable
// scenario file.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/exp"
)

// Fault kinds. Data-plane kinds work under every control plane;
// control-plane kinds are gated on the planes that implement them
// (lsa-drop and lsa-delay need OSPF; crash and ctrl-crash work under
// OSPF and BGP).
const (
	// FaultLinkDown fails link a–b at atMs; endMs > 0 restores it.
	FaultLinkDown = "link-down"
	// FaultUnidirDown fails only the a→b direction (the BFD-style
	// detector still brings the port down at both ends after the
	// detection delay, since a session needs both directions).
	FaultUnidirDown = "unidir-down"
	// FaultGray drops packets transmitted from a toward b with
	// probability prob during [atMs, endMs] — the classic gray failure:
	// the link is up, the detector sees nothing, packets die.
	FaultGray = "gray"
	// FaultFlap toggles link a–b down/up every periodMs during
	// [atMs, endMs], ending restored.
	FaultFlap = "flap"
	// FaultPodBurst fails every fabric link touching a switch of pod
	// during [atMs, endMs] — a correlated burst (shared power/ToR rack).
	FaultPodBurst = "pod-burst"
	// FaultHelloSuppress wedges node's failure detector during
	// [atMs, endMs]: port-state beliefs stay stale until the window ends
	// and the detectors rescan.
	FaultHelloSuppress = "hello-suppress"
	// FaultLSADrop drops every OSPF LSA flood hop during [atMs, endMs]
	// (node, if set, restricts it to floods from or to that node). The
	// domain refreshes at window end, as periodic LSA refresh would.
	FaultLSADrop = "lsa-drop"
	// FaultLSADelay adds delayMs to every flood hop during [atMs, endMs].
	FaultLSADelay = "lsa-delay"
	// FaultCrash crashes switch node at atMs: all links down, FIB wiped,
	// control-plane instance dead. endMs > 0 restarts it (links up,
	// connected + static routes reinstalled, the control plane
	// re-originates); endMs = 0 leaves it down for good.
	FaultCrash = "crash"
	// FaultCtrlCrash crashes only node's control-plane process during
	// [atMs, endMs]: links stay up and the last installed FIB keeps
	// forwarding (persist-on-crash), but the speaker stops processing.
	// Under BGP with graceful restart enabled, helpers retain the routes
	// through the crashed speaker as stale instead of withdrawing them.
	FaultCtrlCrash = "ctrl-crash"
	// FaultFalseDetect forces both endpoints of healthy link a–b to
	// believe it is down during [atMs, endMs] — a detector false positive
	// (e.g. an overloaded BFD session missing its deadline). The wire
	// itself never fails; the ports rescan at window end.
	FaultFalseDetect = "false-detect"
	// FaultFlapStorm forces the beliefs about every fabric link of pod
	// down and back up every periodMs during [atMs, endMs] — correlated
	// detector churn (a flapping optic bank, a BFD storm), ending with a
	// rescan that restores truthful beliefs. The wires never fail.
	FaultFlapStorm = "flap-storm"
)

// Fault is one scheduled fault of a scenario.
type Fault struct {
	Kind string `json:"kind"`
	AtMs int64  `json:"atMs"`
	// EndMs ends windowed faults; 0 means permanent where allowed.
	EndMs int64 `json:"endMs,omitempty"`
	// A, B name the link endpoints of link-scoped kinds.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Node names the switch of node-scoped kinds.
	Node string `json:"node,omitempty"`
	// Pod is the pod index of pod-burst.
	Pod int `json:"pod,omitempty"`
	// Prob is the gray-loss drop probability in (0, 1].
	Prob float64 `json:"prob,omitempty"`
	// PeriodMs is the flap half-period.
	PeriodMs int64 `json:"periodMs,omitempty"`
	// DelayMs is the lsa-delay extra per flood hop.
	DelayMs int64 `json:"delayMs,omitempty"`
}

// Scenario is a replayable chaos experiment: topology, control plane,
// probe flows, fault schedule and oracle budget. The shrinker emits these
// as files; the corpus replays them in CI.
type Scenario struct {
	Scheme  string `json:"scheme"`
	Ports   int    `json:"ports"`
	Control string `json:"control,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// HorizonMs overrides the derived horizon (last fault + budget +
	// drain margin). Every fault window must close before it.
	HorizonMs int64 `json:"horizonMs,omitempty"`
	// BudgetMs overrides the control plane's detection+reroute budget the
	// blackhole and loop oracles allow around each fault. The default is
	// deliberately generous (full reconvergence); tighten it to assert
	// fast-reroute-grade recovery, as the known-bad demo does.
	BudgetMs int64 `json:"budgetMs,omitempty"`
	// EqualPrefixBackup swaps the F²Tree plan for the §II-B equal-prefix
	// ablation the paper argues against — the known-bad configuration.
	EqualPrefixBackup bool `json:"equalPrefixBackup,omitempty"`
	// DisableFastReroute ablates backup routes entirely.
	DisableFastReroute bool `json:"disableFastReroute,omitempty"`
	// Detector selects the failure-detection model (nil = the fixed
	// 60 ms delay every existing scenario ran under, byte-identical).
	Detector *detect.Spec `json:"detector,omitempty"`
	// GR enables BGP graceful restart with the spec's timers. Requires
	// the bgp control plane.
	GR *bgp.GRSpec `json:"gr,omitempty"`
	// Flows are the probe flows (default: leftmost→rightmost and
	// rightmost→leftmost); a flow's zero fields mean 256 B every 1 ms.
	Flows  []exp.Flow `json:"flows,omitempty"`
	Faults []Fault    `json:"faults"`
}

// controlName normalizes the control plane ("" means ospf).
func (sc *Scenario) controlName() string {
	if sc.Control == "" {
		return exp.ControlOSPF
	}
	return sc.Control
}

// needsLink reports whether the kind names a link via A/B.
func needsLink(kind string) bool {
	switch kind {
	case FaultLinkDown, FaultUnidirDown, FaultGray, FaultFlap, FaultFalseDetect:
		return true
	}
	return false
}

// controlsFor returns the control planes the kind works under (nil =
// any): lsa-drop/lsa-delay manipulate OSPF flooding; crash/ctrl-crash
// need a per-node routing process to kill (OSPF or BGP).
func controlsFor(kind string) []string {
	switch kind {
	case FaultLSADrop, FaultLSADelay:
		return []string{exp.ControlOSPF}
	case FaultCrash, FaultCtrlCrash:
		return []string{exp.ControlOSPF, exp.ControlBGP}
	}
	return nil
}

// lastTransitionMs is when the fault's final state write happens (AtMs
// for permanent faults, EndMs for windowed ones).
func (f Fault) lastTransitionMs() int64 {
	if f.EndMs > f.AtMs {
		return f.EndMs
	}
	return f.AtMs
}

// Validate checks structural integrity and control-plane gating without
// building the topology (node/link names resolve at run time).
func (sc *Scenario) Validate() error {
	if sc.Scheme == "" || sc.Ports == 0 {
		return fmt.Errorf("chaos: scheme and ports are required")
	}
	control := sc.controlName()
	if _, err := exp.ParseControl(control); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if sc.HorizonMs < 0 || sc.BudgetMs < 0 {
		return fmt.Errorf("chaos: negative horizon or budget")
	}
	if sc.EqualPrefixBackup && sc.DisableFastReroute {
		return fmt.Errorf("chaos: equalPrefixBackup installs backup routes, disableFastReroute ablates them; pick one")
	}
	if sc.Detector != nil {
		if err := sc.Detector.Validate(); err != nil {
			return fmt.Errorf("chaos: detector: %w", err)
		}
	}
	if sc.GR != nil {
		if control != exp.ControlBGP {
			return fmt.Errorf("chaos: gr needs the bgp control plane, have %s", control)
		}
		if err := sc.GR.Validate(); err != nil {
			return fmt.Errorf("chaos: gr: %w", err)
		}
	}
	seen := make(map[string]int, len(sc.Flows))
	for i, f := range sc.Flows {
		if f.Src == "" || f.Dst == "" {
			return fmt.Errorf("chaos: flow %d: src and dst are required", i)
		}
		if f.IntervalUs < 0 || f.SizeBytes < 0 {
			return fmt.Errorf("chaos: flow %d: negative interval or size", i)
		}
		key := f.Src + "\x00" + f.Dst
		if j, dup := seen[key]; dup {
			return fmt.Errorf("chaos: flow %d duplicates flow %d (%s → %s)", i, j, f.Src, f.Dst)
		}
		seen[key] = i
	}
	for i, f := range sc.Faults {
		if f.AtMs < 0 {
			return fmt.Errorf("chaos: fault %d: negative time %d ms", i, f.AtMs)
		}
		if f.EndMs != 0 && f.EndMs <= f.AtMs {
			return fmt.Errorf("chaos: fault %d: endMs %d not after atMs %d", i, f.EndMs, f.AtMs)
		}
		if sc.HorizonMs > 0 && f.lastTransitionMs() > sc.HorizonMs {
			return fmt.Errorf("chaos: fault %d: window closes at %d ms, past the %d ms horizon",
				i, f.lastTransitionMs(), sc.HorizonMs)
		}
		if needsLink(f.Kind) && (f.A == "" || f.B == "") {
			return fmt.Errorf("chaos: fault %d: %s needs link endpoints a and b", i, f.Kind)
		}
		if allowed := controlsFor(f.Kind); allowed != nil {
			ok := false
			for _, c := range allowed {
				if control == c {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("chaos: fault %d: %s does not work under the %s control plane",
					i, f.Kind, control)
			}
		}
		switch f.Kind {
		case FaultLinkDown, FaultUnidirDown, FaultCrash:
			// Permanent (EndMs = 0) allowed.
		case FaultGray:
			if f.EndMs == 0 {
				return fmt.Errorf("chaos: fault %d: gray needs a window", i)
			}
			if f.Prob <= 0 || f.Prob > 1 {
				return fmt.Errorf("chaos: fault %d: gray prob %v outside (0, 1]", i, f.Prob)
			}
		case FaultFlap:
			if f.EndMs == 0 || f.PeriodMs <= 0 {
				return fmt.Errorf("chaos: fault %d: flap needs a window and periodMs > 0", i)
			}
		case FaultPodBurst:
			if f.EndMs == 0 {
				return fmt.Errorf("chaos: fault %d: pod-burst needs a window", i)
			}
			if f.Pod < 0 {
				return fmt.Errorf("chaos: fault %d: negative pod", i)
			}
		case FaultHelloSuppress, FaultLSADrop:
			if f.EndMs == 0 {
				return fmt.Errorf("chaos: fault %d: %s needs a window", i, f.Kind)
			}
			if f.Kind == FaultHelloSuppress && f.Node == "" {
				return fmt.Errorf("chaos: fault %d: hello-suppress needs a node", i)
			}
		case FaultLSADelay:
			if f.EndMs == 0 || f.DelayMs <= 0 || f.DelayMs > 2000 {
				return fmt.Errorf("chaos: fault %d: lsa-delay needs a window and delayMs in (0, 2000]", i)
			}
		case FaultCtrlCrash:
			if f.Node == "" || f.EndMs == 0 {
				return fmt.Errorf("chaos: fault %d: ctrl-crash needs a node and a restart window", i)
			}
		case FaultFalseDetect:
			if f.EndMs == 0 {
				return fmt.Errorf("chaos: fault %d: false-detect needs a window", i)
			}
		case FaultFlapStorm:
			if f.EndMs == 0 || f.PeriodMs <= 0 {
				return fmt.Errorf("chaos: fault %d: flap-storm needs a window and periodMs > 0", i)
			}
			if f.Pod < 0 {
				return fmt.Errorf("chaos: fault %d: negative pod", i)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.Kind == FaultCrash && f.Node == "" {
			return fmt.Errorf("chaos: fault %d: crash needs a node", i)
		}
	}
	return nil
}

// Parse decodes and validates a scenario file.
func Parse(r io.Reader) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Write renders the scenario as indented JSON, the format Parse reads.
func Write(w io.Writer, sc *Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}
