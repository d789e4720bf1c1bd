// Package failure injects link failures: the seven deterministic
// conditions of the paper's Table IV (built relative to a flow's current
// forwarding path, as the paper does) and the random log-normal failure
// process of §IV-B derived from production measurements.
package failure

import (
	"fmt"
	"time"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Condition labels the failure conditions of Table IV.
type Condition int

// Table IV conditions.
const (
	C1 Condition = iota + 1 // 1 ToR–agg link (1st condition of §II-C)
	C2                      // 1 core–agg link (1st)
	C3                      // C1 + C2 together (1st)
	C4                      // 2 adjacent ToR–agg links in the pod (2nd)
	C5                      // all ToR–agg links in the pod except the left across neighbor's (2nd)
	C6                      // 1 ToR–agg link + Sx's right across link (3rd)
	C7                      // 2 ToR–agg links + 1 right across link (4th: fast reroute fails)
)

// String names the condition like the paper.
func (c Condition) String() string {
	if c >= C1 && c <= C7 {
		return fmt.Sprintf("C%d", int(c))
	}
	return fmt.Sprintf("Condition(%d)", int(c))
}

// Describe returns the paper's Table IV row text.
func (c Condition) Describe() string {
	switch c {
	case C1:
		return "1 link between ToR and aggregation switch"
	case C2:
		return "1 link between core and aggregation switch"
	case C3:
		return "1 ToR-agg link & 1 core-agg link"
	case C4:
		return "2 adjacent ToR-agg links in the same pod"
	case C5:
		return "all ToR-agg links in the pod except the left across neighbor's"
	case C6:
		return "1 ToR-agg link & 1 right across link"
	case C7:
		return "2 ToR-agg links & 1 right across link"
	default:
		return "unknown"
	}
}

// PaperCondition maps a Table IV label to the §II-C failure condition
// number it belongs to.
func (c Condition) PaperCondition() int {
	switch c {
	case C1, C2, C3:
		return 1
	case C4, C5:
		return 2
	case C6:
		return 3
	case C7:
		return 4
	default:
		return 0
	}
}

// AllConditions lists C1..C7 in order.
func AllConditions() []Condition {
	return []Condition{C1, C2, C3, C4, C5, C6, C7}
}

// ParseCondition maps a Table IV label back to its condition. "C1".."C7"
// is the canonical spelling (Condition.String); "c1".."c7" is accepted too.
func ParseCondition(label string) (Condition, error) {
	if len(label) == 2 && (label[0] == 'C' || label[0] == 'c') {
		if c := Condition(label[1] - '0'); c >= C1 && c <= C7 {
			return c, nil
		}
	}
	return 0, fmt.Errorf("failure: unknown condition %q (want C1..C7)", label)
}

// FatTreeApplicable reports whether the condition exists in a plain fat
// tree (C6/C7 involve across links and are F²Tree-specific, §IV-A).
func (c Condition) FatTreeApplicable() bool { return c <= C5 }

// AppliesTo reports whether t can express the condition: C6/C7 fail an
// across link, so they need a topology with rings.
func (c Condition) AppliesTo(t *topo.Topology) bool {
	return c.FatTreeApplicable() || len(t.Rings) > 0
}

// rightNeighbor returns the switch "to the right" of a (ring order if a
// ring exists, same-layer pod index order otherwise) and, when reached via
// a ring, the across link to it.
func rightNeighbor(t *topo.Topology, a topo.NodeID) (topo.NodeID, topo.LinkID, error) {
	if n, l, ok := t.RightAcross(a); ok {
		return n, l, nil
	}
	peers := layerPeers(t, a)
	for i, id := range peers {
		if id == a {
			return peers[(i+1)%len(peers)], topo.None, nil
		}
	}
	return topo.None, topo.None, fmt.Errorf("failure: %s not found among layer peers", t.Node(a).Name)
}

// leftNeighbor mirrors rightNeighbor.
func leftNeighbor(t *topo.Topology, a topo.NodeID) (topo.NodeID, topo.LinkID, error) {
	if n, l, ok := t.LeftAcross(a); ok {
		return n, l, nil
	}
	peers := layerPeers(t, a)
	for i, id := range peers {
		if id == a {
			return peers[(i-1+len(peers))%len(peers)], topo.None, nil
		}
	}
	return topo.None, topo.None, fmt.Errorf("failure: %s not found among layer peers", t.Node(a).Name)
}

// layerPeers returns the switches sharing a's kind and pod, in index order.
func layerPeers(t *topo.Topology, a topo.NodeID) []topo.NodeID {
	nd := t.Node(a)
	var peers []topo.NodeID
	for _, id := range t.NodesOfKind(nd.Kind) {
		if t.Node(id).Pod == nd.Pod {
			peers = append(peers, id)
		}
	}
	return peers
}

// linkBetween returns the single live link joining a and b.
func linkBetween(t *topo.Topology, a, b topo.NodeID) (topo.LinkID, error) {
	ls := t.LinksBetween(a, b)
	if len(ls) == 0 {
		return topo.None, fmt.Errorf("failure: no link %s–%s", t.Node(a).Name, t.Node(b).Name)
	}
	return ls[0].ID, nil
}

// ConditionLinks computes which links to fail for a Table IV condition,
// relative to the flow's current path (which must end host←ToR←agg←core…,
// i.e. an inter-pod path). Returns the link set to fail simultaneously.
func ConditionLinks(t *topo.Topology, cond Condition, path network.Path) ([]topo.LinkID, error) {
	n := len(path.Nodes)
	if n < 4 || path.Hops() < 3 {
		return nil, fmt.Errorf("failure: path too short (%d nodes)", n)
	}
	dstToR := path.Nodes[n-2]
	sx := path.Nodes[n-3] // the downward switch Sx (agg, or spine in 2-layer fabrics)
	if t.Node(dstToR).Kind != topo.ToR ||
		(t.Node(sx).Kind != topo.Agg && t.Node(sx).Kind != topo.Core) {
		return nil, fmt.Errorf("failure: path tail is %s←%s, want switch←tor",
			t.Node(sx).Name, t.Node(dstToR).Name)
	}
	// Links[i] joins Nodes[i]→Nodes[i+1]: Sx→dstToR is Links[n-3].
	downLink := path.Links[n-3]
	var coreDown topo.LinkID = topo.None
	if n >= 5 && t.Node(path.Nodes[n-4]).Kind == topo.Core {
		coreDown = path.Links[n-4] // core → Sx
	}

	switch cond {
	case C1:
		return []topo.LinkID{downLink}, nil
	case C2:
		if coreDown == topo.None {
			return nil, fmt.Errorf("failure: path has no core hop for C2")
		}
		return []topo.LinkID{coreDown}, nil
	case C3:
		if coreDown == topo.None {
			return nil, fmt.Errorf("failure: path has no core hop for C3")
		}
		return []topo.LinkID{downLink, coreDown}, nil
	case C4:
		right, _, err := rightNeighbor(t, sx)
		if err != nil {
			return nil, err
		}
		l2, err := linkBetween(t, right, dstToR)
		if err != nil {
			return nil, err
		}
		return []topo.LinkID{downLink, l2}, nil
	case C5:
		left, _, err := leftNeighbor(t, sx)
		if err != nil {
			return nil, err
		}
		var out []topo.LinkID
		for _, l := range t.LinksOf(dstToR) {
			other, ok := l.Other(dstToR)
			if !ok || t.Node(other).Kind == topo.Host {
				continue
			}
			if other == left {
				continue // spare the left across neighbor's downlink
			}
			out = append(out, l.ID)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("failure: C5 found no links to fail")
		}
		return out, nil
	case C6:
		_, acrossR, err := rightNeighbor(t, sx)
		if err != nil {
			return nil, err
		}
		if acrossR == topo.None {
			return nil, fmt.Errorf("failure: %s is not F²Tree-specific (no across links)", cond)
		}
		return []topo.LinkID{downLink, acrossR}, nil
	case C7:
		right, _, err := rightNeighbor(t, sx)
		if err != nil {
			return nil, err
		}
		l2, err := linkBetween(t, right, dstToR)
		if err != nil {
			return nil, err
		}
		_, acrossRR, err := rightNeighbor(t, right)
		if err != nil {
			return nil, err
		}
		if acrossRR == topo.None {
			return nil, fmt.Errorf("failure: %s is not F²Tree-specific (no across links)", cond)
		}
		return []topo.LinkID{downLink, l2, acrossRR}, nil
	default:
		return nil, fmt.Errorf("failure: unknown condition %v", cond)
	}
}

// LinksOnPath is ConditionLinks relative to the path the flow takes from
// src through nw's forwarding tables right now — how every driver picks the
// links to fail, since ECMP decides which switches carry the flow.
func LinksOnPath(nw *network.Network, cond Condition, src topo.NodeID, flow fib.FlowKey) ([]topo.LinkID, error) {
	path, err := nw.PathTrace(src, flow)
	if err != nil {
		return nil, err
	}
	return ConditionLinks(nw.Topology(), cond, path)
}

// Inject schedules all links in the set to fail at the given time.
func Inject(nw *network.Network, links []topo.LinkID, at sim.Time) {
	for _, id := range links {
		id := id
		nw.Sim().At(at, func(sim.Time) { nw.FailLink(id) })
	}
}

// SwitchLinks returns every live link of a switch. The paper (footnote 1)
// models a whole-switch failure as the failure of all its links; pass the
// result to Inject.
func SwitchLinks(t *topo.Topology, node topo.NodeID) []topo.LinkID {
	links := t.LinksOf(node)
	out := make([]topo.LinkID, 0, len(links))
	for _, l := range links {
		out = append(out, l.ID)
	}
	return out
}

// RandomConfig parameterizes the random failure process of §IV-B: link
// failures with log-normal inter-failure times and durations ([1] Gill et
// al.), across `Channels` independent streams to model concurrent failures.
type RandomConfig struct {
	// Channels is the target failure concurrency (the paper's "1 and 5
	// concurrent failures").
	Channels int
	// InterFailure is the per-channel gap between a repair and the next
	// failure, seconds.
	InterFailure sim.LogNormal
	// Duration is the failure lasting time, seconds.
	Duration sim.LogNormal
	// Classes restricts which link classes may fail; empty means all
	// switch-switch links (host links never fail, as in the paper's
	// emulation which fails fabric links).
	Classes []topo.LinkClass
}

// DefaultRandomConfig gives ≈ 40 failures per channel over 600 s with the
// strongly clustered inter-failure times production measurements report
// ([1] Gill et al.): the log-normal's heavy tail makes failures arrive in
// bursts, which is what drives OSPF's SPF hold into multi-second backoff
// even at one concurrent failure (paper §IV-B).
func DefaultRandomConfig(channels int) (RandomConfig, error) {
	inter, err := sim.LogNormalFromMedianP95(5, 120)
	if err != nil {
		return RandomConfig{}, err
	}
	dur, err := sim.LogNormalFromMedianP95(1.5, 25)
	if err != nil {
		return RandomConfig{}, err
	}
	return RandomConfig{Channels: channels, InterFailure: inter, Duration: dur}, nil
}

// Process runs the random failure generator.
type Process struct {
	nw      *network.Network
	cfg     RandomConfig
	links   []topo.LinkID
	stopped bool

	count  int
	active map[topo.LinkID]bool

	// pending tracks the not-yet-fired inter-failure waits so Stop can
	// cancel them instead of leaving dead events in the queue (which would
	// stall RunUntilIdle until the last sampled wait elapsed).
	nextWait int
	pending  map[int]sim.Handle
}

// NewProcess builds a process over nw's live fabric links.
func NewProcess(nw *network.Network, cfg RandomConfig) (*Process, error) {
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("failure: need ≥ 1 channel")
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = []topo.LinkClass{topo.EdgeLink, topo.SpineLink, topo.AcrossLink}
	}
	classOK := make(map[topo.LinkClass]bool, len(classes))
	for _, c := range classes {
		classOK[c] = true
	}
	p := &Process{
		nw: nw, cfg: cfg,
		active:  make(map[topo.LinkID]bool),
		pending: make(map[int]sim.Handle),
	}
	for _, l := range nw.Topology().LiveLinks() {
		if classOK[l.Class] {
			p.links = append(p.links, l.ID)
		}
	}
	if len(p.links) == 0 {
		return nil, fmt.Errorf("failure: no candidate links")
	}
	return p, nil
}

// Start launches the channels.
func (p *Process) Start() {
	for c := 0; c < p.cfg.Channels; c++ {
		p.scheduleNext()
	}
}

// Stop halts future failures by canceling every pending inter-failure
// wait (in-progress repairs still complete, so no link is left failed by
// stopping). After Stop the process schedules nothing further and the
// simulator can quiesce without draining dead events.
func (p *Process) Stop() {
	p.stopped = true
	for _, id := range detsort.Keys(p.pending) {
		p.nw.Sim().Cancel(p.pending[id])
		delete(p.pending, id)
	}
}

// Count returns how many failures have been injected.
func (p *Process) Count() int { return p.count }

// Active returns how many links are currently failed.
func (p *Process) Active() int { return len(p.active) }

func (p *Process) scheduleNext() {
	rng := p.nw.Sim().Rand()
	wait := time.Duration(p.cfg.InterFailure.Sample(rng) * float64(time.Second))
	wid := p.nextWait
	p.nextWait++
	p.pending[wid] = p.nw.Sim().After(wait, func(now sim.Time) {
		delete(p.pending, wid)
		if p.stopped {
			return
		}
		// Pick a currently-up candidate link.
		var id topo.LinkID = topo.None
		for try := 0; try < 32; try++ {
			cand := p.links[rng.Intn(len(p.links))]
			if !p.active[cand] {
				id = cand
				break
			}
		}
		if id == topo.None {
			p.scheduleNext()
			return
		}
		p.count++
		p.active[id] = true
		p.nw.FailLink(id)
		dur := time.Duration(p.cfg.Duration.Sample(rng) * float64(time.Second))
		p.nw.Sim().After(dur, func(sim.Time) {
			p.nw.RestoreLink(id)
			delete(p.active, id)
			if !p.stopped {
				p.scheduleNext()
			}
		})
	})
}
