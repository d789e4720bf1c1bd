package main

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
)

// labSpec names one lab: the fabric, its control plane and its configs.
type labSpec struct {
	scheme  exp.Scheme
	ports   int
	control core.ControlPlane
	seed    int64
	net     network.Config
	ospf    ospf.Config
}

// scope is where a piece of traced work hangs its spans: the tracer (nil
// when the pass is untraced), the parent span and the pass or request id.
type scope struct {
	tr     *tracer
	parent int
	run    int
}

// span times fn as a child of the scope and hands it the child scope.
func (sc scope) span(name string, fn func(scope) error) error {
	id := sc.tr.begin(sc.parent, sc.run, name)
	err := fn(scope{tr: sc.tr, parent: id, run: sc.run})
	sc.tr.end(id)
	return err
}

// buildLab returns a converged lab. Untraced, it is exp.BuildTopology plus
// core.NewLab, exactly what the drivers call. Traced, it assembles the same
// stack from the public pieces core.NewLab is made of, one span per piece;
// the digest comparison between the two passes proves the two equivalent.
func buildLab(sc scope, ls labSpec) (*core.Lab, error) {
	if sc.tr == nil {
		tp, err := exp.BuildTopology(ls.scheme, ls.ports)
		if err != nil {
			return nil, err
		}
		return core.NewLab(core.LabConfig{
			Topology: tp, Net: ls.net, OSPF: ls.ospf, ControlPlane: ls.control, Seed: ls.seed,
		})
	}
	var lab *core.Lab
	err := sc.span("core.lab_build", func(sc scope) error {
		var tp *topo.Topology
		err := sc.span("topo.build", func(scope) (err error) {
			if tp, err = exp.BuildTopology(ls.scheme, ls.ports); err != nil {
				return err
			}
			if len(tp.Racks) > 0 {
				return fmt.Errorf("bench: %s has dual-ToR racks, which the traced assembly does not cover", ls.scheme)
			}
			return tp.Validate()
		})
		if err != nil {
			return err
		}
		s := sim.New(ls.seed)
		var nw *network.Network
		err = sc.span("network.new", func(scope) (err error) {
			nw, err = network.New(s, tp, ls.net)
			return err
		})
		if err != nil {
			return err
		}
		lab = &core.Lab{Sim: s, Topo: tp, Net: nw}
		switch ls.control {
		case core.ControlCentralized:
			err = sc.span("controller.bootstrap", func(scope) error {
				lab.Controller = controller.New(nw, controller.Config{})
				return lab.Controller.Bootstrap()
			})
		case core.ControlBGP:
			err = sc.span("bgp.bootstrap", func(scope) error {
				lab.BGP = bgp.NewDomain(nw, bgp.Config{})
				return lab.BGP.Bootstrap()
			})
		default:
			err = sc.span("ospf.bootstrap", func(scope) error {
				lab.Domain = ospf.NewDomain(nw, ls.ospf)
				return lab.Domain.Bootstrap()
			})
		}
		if err != nil || len(tp.Rings) == 0 {
			return err
		}
		err = sc.span("core.plan", func(scope) (err error) {
			lab.Plan, err = core.PlanBackupRoutes(tp)
			return err
		})
		if err != nil {
			return err
		}
		return sc.span("core.apply", func(scope) error { return core.Apply(nw, lab.Plan) })
	})
	return lab, err
}

// layerCounts accumulates the counters read at span boundaries. A nil map
// drops every write: counts are taken from the first traced pass only, so
// that they repeat exactly for a seed however many passes a run fits in.
type layerCounts map[string]float64

func (c layerCounts) add(name string, v float64) {
	if c != nil {
		c[name] += v
	}
}

func (c layerCounts) max(name string, v float64) {
	if c != nil && v > c[name] {
		c[name] = v
	}
}

// observeLab reads every public counter of a lab whose run has ended.
func (c layerCounts) observeLab(lab *core.Lab) {
	if c == nil {
		return
	}
	c.add("sim.events", float64(lab.Sim.EventsRun()))
	st := lab.Net.Stats()
	c.add("network.delivered", float64(st.Delivered))
	c.add("network.dropped", float64(st.TotalDrops()))
	var hops uint64
	for _, l := range lab.Topo.LiveLinks() {
		hops += lab.Net.LinkStatsFor(l.ID, l.A).Packets + lab.Net.LinkStatsFor(l.ID, l.B).Packets
	}
	c.add("network.forwarded", float64(hops))
	switch {
	case lab.Domain != nil:
		full, inc, same := lab.Domain.SPFTotals()
		c.add("ospf.spf_full", float64(full))
		c.add("ospf.spf_incremental", float64(inc))
		c.add("ospf.spf_unchanged", float64(same))
		instFull, instDelta := lab.Domain.InstallTotals()
		c.add("ospf.install_full", float64(instFull))
		c.add("ospf.install_delta", float64(instDelta))
		for _, id := range switches(lab.Topo) {
			if inst := lab.Domain.Instance(id); inst != nil {
				c.max("ospf.max_spf_wait_ms", millis(inst.MaxSPFWait()))
			}
		}
	case lab.BGP != nil:
		for _, id := range switches(lab.Topo) {
			if inst := lab.BGP.Instance(id); inst != nil {
				c.add("bgp.updates_rx", float64(inst.UpdatesReceived()))
			}
		}
	}
}

// switches lists the live non-host nodes in topology order.
func switches(tp *topo.Topology) []topo.NodeID {
	var out []topo.NodeID
	for _, id := range tp.LiveNodes() {
		if tp.Node(id).Kind != topo.Host {
			out = append(out, id)
		}
	}
	return out
}

// fabricLinks lists the live switch-to-switch links in topology order.
func fabricLinks(tp *topo.Topology) []*topo.Link {
	var out []*topo.Link
	for _, l := range tp.LiveLinks() {
		if l.Class != topo.HostLink {
			out = append(out, l)
		}
	}
	return out
}

// runSliced advances the simulator to each boundary in turn, one span per
// slice, sampling the event counters between slices. Nothing is scheduled
// between slices, so the event sequence is that of one Run(last boundary).
func runSliced(sc scope, s *sim.Simulator, c layerCounts, names []string, bounds []sim.Time) error {
	for i, b := range bounds {
		before := s.EventsRun()
		err := sc.span(names[i], func(scope) error { return s.Run(b) })
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		c.add(names[i]+"_events", float64(s.EventsRun()-before))
		c.max("sim.peak_pending", float64(s.Pending()))
	}
	return nil
}
