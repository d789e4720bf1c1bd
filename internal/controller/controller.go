// Package controller implements a centralized routing control plane for
// the paper's §V "Centralized Routing DCNs" discussion (PortLand-style
// [26]): switches report detected failures to a central controller, which
// recomputes global shortest paths and pushes new FIBs to every switch.
// Recovery costs detect + report + recompute + install; F²Tree's backup
// routes bridge that window, and the update merely restores optimal paths.
package controller

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the control-loop latencies; a zero field takes DefaultConfig's.
type Config struct {
	ReportDelay  time.Duration // switch→controller failure-report latency
	ComputeDelay time.Duration // global route recomputation (grows with fabric size in production; fixed here)
	InstallDelay time.Duration // controller→switch push plus FIB install
}

// DefaultConfig models a mid-size deployment: the loop adds ≈ 70 ms to detection.
func DefaultConfig() Config {
	return Config{ReportDelay: 2 * time.Millisecond, ComputeDelay: 50 * time.Millisecond, InstallDelay: 20 * time.Millisecond}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	return Config{cmp.Or(c.ReportDelay, d.ReportDelay), cmp.Or(c.ComputeDelay, d.ComputeDelay), cmp.Or(c.InstallDelay, d.InstallDelay)}
}

// Controller is the central route computer.
type Controller struct {
	nw             *network.Network
	topo           *topo.Topology
	cfg            Config
	view           []bool        // view[link]: believed live, fed by switch reports
	reports        []report      // reports[2·link+up]: the argument of a report in flight
	switches, tors []topo.NodeID // live switches by NodeID; subnet ToRs by subnet address, then NodeID
	graph          topo.Graph
	search         topo.Search
	computePending bool // a recomputation is scheduled; later reports join it
	recomputations int
	spare          *batch // the last installed batch, refilled by the next computeAll
}

// report is one switch's report of a link's new state.
type report struct {
	c    *Controller
	link topo.LinkID
	up   bool
}

// New attaches a controller that hears every switch's failure detector (the "report" path).
func New(nw *network.Network, cfg Config) *Controller {
	t, n := nw.Topology(), len(nw.Topology().Nodes)
	c := &Controller{nw: nw, topo: t, cfg: cfg.withDefaults(), view: make([]bool, len(t.Links)),
		reports: make([]report, 2*len(t.Links)), search: topo.Search{Dist: make([]int, n), Mask: make([]uint64, n)}}
	for k := range c.reports {
		c.reports[k] = report{c: c, link: topo.LinkID(k / 2), up: k%2 == 1}
		c.view[k/2] = !t.Links[k/2].Removed
	}
	c.switches = slices.DeleteFunc(t.LiveNodes(), func(id topo.NodeID) bool { return t.Node(id).Kind == topo.Host })
	c.tors = slices.DeleteFunc(t.NodesOfKind(topo.ToR), func(id topo.NodeID) bool { return t.Node(id).Subnet.IsZero() })
	slices.SortStableFunc(c.tors, func(a, b topo.NodeID) int { return cmp.Compare(t.Node(a).Subnet.Addr(), t.Node(b).Subnet.Addr()) })
	nw.OnPortState(c.portReport)
	return c
}

// Recomputations returns how many global recomputations ran.
func (c *Controller) Recomputations() int { return c.recomputations }

// Bootstrap computes and installs the initial global routes synchronously.
// It fails if a switch has more ports than a next-hop mask can name: routes
// over the excess ports would silently vanish from every ECMP set.
func (c *Controller) Bootstrap() error {
	for _, n := range c.switches {
		if nd := c.topo.Node(n); nd.NumPorts > topo.MaskPorts {
			return fmt.Errorf("controller: bootstrap %s: %d ports, next-hop sets name at most %d", nd.Name, nd.NumPorts, topo.MaskPorts)
		}
	}
	return c.computeAll().install()
}

// portReport sends a switch's port change; it reaches the controller after ReportDelay.
func (c *Controller) portReport(now sim.Time, node topo.NodeID, port int, up bool) {
	if l := c.topo.LinkOnPort(node, port); l != nil && c.topo.Node(node).Kind != topo.Host {
		r := &c.reports[2*l.ID]
		if up {
			r = &c.reports[2*l.ID+1]
		}
		c.nw.Sim().AfterArg(c.cfg.ReportDelay, deliver, r)
	}
}

// deliver lands a report in the view; bursts coalesce into one recomputation.
func deliver(_ sim.Time, arg any) {
	r := arg.(*report)
	if c := r.c; c.view[r.link] != r.up { // else a duplicate from the other endpoint
		c.view[r.link] = r.up
		if !c.computePending {
			c.computePending = true
			c.nw.Sim().AfterArg(c.cfg.ComputeDelay, recompute, c)
		}
	}
}

func recompute(_ sim.Time, arg any) {
	c := arg.(*Controller)
	c.computePending, c.recomputations = false, c.recomputations+1
	c.nw.Sim().AfterArg(c.cfg.InstallDelay, install, c.computeAll())
}

func install(_ sim.Time, arg any) {
	_ = arg.(*batch).install() // Bootstrap enforced the mask width: 1..64 hops per route, nothing to reject
}
