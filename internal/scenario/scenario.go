// Package scenario runs user-described experiments: a JSON document picks
// a topology, control plane, probe flows and a timeline of failure events,
// and the runner reports per-flow outage metrics — the `f2tree-lab sim`
// front end for custom what-if studies beyond the paper's own figures.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Scenario is the user-facing experiment description.
type Scenario struct {
	// Scheme and Ports pick the topology (see exp.BuildTopology).
	Scheme string `json:"scheme"`
	Ports  int    `json:"ports"`
	// ControlPlane is "ospf" (default), "bgp" or "centralized".
	ControlPlane string `json:"controlPlane,omitempty"`
	// DisableFastReroute ablates the backup routes.
	DisableFastReroute bool  `json:"disableFastReroute,omitempty"`
	Seed               int64 `json:"seed,omitempty"`
	// HorizonMs ends the run (default 2000).
	HorizonMs int64 `json:"horizonMs,omitempty"`
	// Detector overrides the failure detector (default: fixed delay).
	Detector *detect.Spec `json:"detector,omitempty"`
	// GR enables BGP graceful restart (requires controlPlane "bgp").
	GR *bgp.GRSpec `json:"gr,omitempty"`

	// Flows are the probe flows; a flow's zero fields mean 1448 B every
	// 100 µs.
	Flows  []exp.Flow `json:"flows"`
	Events []Event    `json:"events"`
}

// Event is one timeline action.
type Event struct {
	AtMs int64 `json:"atMs"`
	// Action: "fail-condition" (Condition + Flow), "fail-link" /
	// "restore-link" (A, B node names), "fail-switch" (Node).
	Action    string `json:"action"`
	Condition string `json:"condition,omitempty"`
	Flow      int    `json:"flow,omitempty"`
	A         string `json:"a,omitempty"`
	B         string `json:"b,omitempty"`
	Node      string `json:"node,omitempty"`
}

// FlowReport is the per-flow outcome.
type FlowReport struct {
	Src              string        `json:"src"`
	Dst              string        `json:"dst"`
	Sent             uint64        `json:"sent"`
	Delivered        int           `json:"delivered"`
	ConnectivityLoss time.Duration `json:"-"`
	LossMs           float64       `json:"connectivityLossMs"`
}

// Report is the scenario outcome.
type Report struct {
	Topology string       `json:"topology"`
	Flows    []FlowReport `json:"flows"`
	Drops    uint64       `json:"drops"`
}

// Parse decodes and validates a scenario document.
func Parse(r io.Reader) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Validate checks the document's structural and referential integrity
// without building the topology: required fields, action and condition
// labels, flow references, event times within the horizon, and duplicate
// flows. Node-name references still resolve at Run time, since they need
// the topology.
func (sc *Scenario) Validate() error {
	if sc.Scheme == "" || sc.Ports == 0 {
		return fmt.Errorf("scenario: scheme and ports are required")
	}
	if _, err := exp.ParseControl(sc.control()); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if sc.HorizonMs < 0 {
		return fmt.Errorf("scenario: negative horizon %d ms", sc.HorizonMs)
	}
	if sc.Detector != nil {
		if err := sc.Detector.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if sc.GR != nil {
		if sc.control() != exp.ControlBGP {
			return fmt.Errorf("scenario: gr requires controlPlane \"bgp\"")
		}
		if err := sc.GR.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if len(sc.Flows) == 0 {
		return fmt.Errorf("scenario: at least one flow is required")
	}
	seen := make(map[string]int, len(sc.Flows))
	for i, f := range sc.Flows {
		if f.Src == "" || f.Dst == "" {
			return fmt.Errorf("scenario: flow %d: src and dst are required", i)
		}
		if f.SizeBytes < 0 || f.IntervalUs < 0 {
			return fmt.Errorf("scenario: flow %d: negative size or interval", i)
		}
		key := f.Src + "\x00" + f.Dst
		if j, dup := seen[key]; dup {
			return fmt.Errorf("scenario: flow %d duplicates flow %d (%s → %s)", i, j, f.Src, f.Dst)
		}
		seen[key] = i
	}
	horizon := int64(2000)
	if sc.HorizonMs > 0 {
		horizon = sc.HorizonMs
	}
	for i, ev := range sc.Events {
		if ev.AtMs < 0 {
			return fmt.Errorf("scenario: event %d: negative time %d ms", i, ev.AtMs)
		}
		if ev.AtMs > horizon {
			return fmt.Errorf("scenario: event %d: %d ms is past the %d ms horizon", i, ev.AtMs, horizon)
		}
		switch ev.Action {
		case "fail-condition":
			if _, err := failure.ParseCondition(ev.Condition); err != nil {
				return fmt.Errorf("scenario: event %d: %w", i, err)
			}
			if ev.Flow < 0 || ev.Flow >= len(sc.Flows) {
				return fmt.Errorf("scenario: event %d: flow %d out of range [0,%d)", i, ev.Flow, len(sc.Flows))
			}
		case "fail-link", "restore-link":
			if ev.A == "" || ev.B == "" {
				return fmt.Errorf("scenario: event %d: %s needs endpoints a and b", i, ev.Action)
			}
		case "fail-switch":
			if ev.Node == "" {
				return fmt.Errorf("scenario: event %d: fail-switch needs a node", i)
			}
		default:
			return fmt.Errorf("scenario: event %d: unknown action %q", i, ev.Action)
		}
	}
	return nil
}

// control is the document's control-plane name as exp spells it: this
// format has always accepted any letter case.
func (sc *Scenario) control() string { return strings.ToLower(sc.ControlPlane) }

// Run executes the scenario.
func Run(sc *Scenario) (*Report, error) {
	lab, err := exp.NewLab(exp.LabSpec{
		Scheme: exp.Scheme(sc.Scheme), Ports: sc.Ports, Control: sc.control(),
		Seed: sc.Seed, DisableFastReroute: sc.DisableFastReroute,
		Detector: sc.Detector, GR: sc.GR,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	tp := lab.Topo
	horizon := sim.Time(2 * time.Second)
	if sc.HorizonMs > 0 {
		horizon = sim.Time(time.Duration(sc.HorizonMs) * time.Millisecond)
	}
	resolveNode := func(name string) (topo.NodeID, error) {
		nd := tp.FindNode(name)
		if nd == nil {
			return topo.None, fmt.Errorf("scenario: unknown node %q", name)
		}
		return nd.ID, nil
	}
	runs, err := exp.AttachProbes(lab, sc.Flows, 1448, 100*time.Microsecond, horizon)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	// Schedule the timeline. firstFailAt is the earliest failing event, -1
	// while there is none; faultErr is the first error a fault callback
	// hits once the simulation runs.
	firstFailAt := sim.Time(-1)
	var faultErr error
	for _, ev := range sc.Events {
		ev := ev
		at := sim.Time(time.Duration(ev.AtMs) * time.Millisecond)
		if ev.Action != "restore-link" && (firstFailAt < 0 || at < firstFailAt) {
			firstFailAt = at
		}
		switch ev.Action {
		case "fail-condition":
			if ev.Flow < 0 || ev.Flow >= len(runs) {
				return nil, fmt.Errorf("scenario: event references flow %d", ev.Flow)
			}
			cond, err := failure.ParseCondition(ev.Condition)
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			fr := runs[ev.Flow]
			lab.Sim.At(at, func(sim.Time) {
				links, err := failure.LinksOnPath(lab.Net, cond, fr.Src, fr.Source.FlowKey())
				if err != nil {
					if faultErr == nil {
						faultErr = fmt.Errorf("scenario: fail-condition %s at %d ms: %w", ev.Condition, ev.AtMs, err)
					}
					return
				}
				for _, id := range links {
					lab.Net.FailLink(id)
				}
			})
		case "fail-link", "restore-link":
			a, err := resolveNode(ev.A)
			if err != nil {
				return nil, err
			}
			b, err := resolveNode(ev.B)
			if err != nil {
				return nil, err
			}
			links := tp.LinksBetween(a, b)
			if len(links) == 0 {
				return nil, fmt.Errorf("scenario: no link %s–%s", ev.A, ev.B)
			}
			up := ev.Action == "restore-link"
			lab.Sim.At(at, func(sim.Time) {
				for _, l := range links {
					lab.Net.SetLinkState(l.ID, up)
				}
			})
		case "fail-switch":
			node, err := resolveNode(ev.Node)
			if err != nil {
				return nil, err
			}
			lab.Sim.At(at, func(sim.Time) {
				for _, id := range failure.SwitchLinks(tp, node) {
					lab.Net.FailLink(id)
				}
			})
		default:
			return nil, fmt.Errorf("scenario: unknown action %q", ev.Action)
		}
	}

	if err := lab.Sim.Run(horizon); err != nil {
		return nil, err
	}
	if faultErr != nil {
		return nil, faultErr
	}

	rep := &Report{Topology: tp.Name, Drops: lab.Net.Stats().TotalDrops()}
	for _, fr := range runs {
		arr := fr.Sink.Arrivals
		loss := time.Duration(0)
		if firstFailAt >= 0 {
			loss = metrics.ConnectivityLossOf(len(arr), func(i int) sim.Time { return arr[i].Arrived }, firstFailAt, horizon)
		}
		rep.Flows = append(rep.Flows, FlowReport{
			Src: tp.Node(fr.Src).Name, Dst: tp.Node(fr.Dst).Name,
			Sent: fr.Source.Sent(), Delivered: len(arr),
			ConnectivityLoss: loss, LossMs: float64(loss.Microseconds()) / 1000,
		})
	}
	return rep, nil
}

// WriteReport renders the report as indented JSON.
func WriteReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
