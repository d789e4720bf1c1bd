package ospf

import (
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestF2TreeAcrossLinksAreAdjacencies(t *testing.T) {
	// The across links are ordinary OSPF links (the paper's static routes
	// are *additional*, not a replacement): every ring member advertises
	// its two across neighbors.
	tp, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(7)
	nw := mustNetwork(t, s, tp)
	dom := NewDomain(nw, Config{})
	if err := dom.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for _, id := range tp.NodesOfKind(topo.Agg) {
		inst := dom.Instance(id)
		lsa := inst.lsaOf(id)
		across := 0
		for _, a := range lsa.Adjacencies {
			if tp.Link(a.Link).Class == topo.AcrossLink {
				across++
			}
		}
		if across != 2 {
			t.Fatalf("%s advertises %d across adjacencies, want 2", tp.Node(id).Name, across)
		}
	}
}

func TestAcrossLinksNotUsedOnShortestPaths(t *testing.T) {
	// §II-D: "backup routes are not used in forwarding unless failures
	// happen" — and neither are the across links by OSPF's own shortest
	// paths (they only shorten nothing in a fat-tree-like fabric).
	l := newFatTreeLab(t, 4, Config{})
	_ = l
	tp, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(7)
	nw := mustNetwork(t, s, tp)
	dom := NewDomain(nw, Config{})
	if err := dom.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hosts := tp.NodesOfKind(topo.Host)
	for i := 0; i < len(hosts); i += 5 {
		for j := 1; j < len(hosts); j += 7 {
			if hosts[i] == hosts[j] {
				continue
			}
			flow := flowOf(tp, hosts[i], hosts[j])
			p, err := nw.PathTrace(hosts[i], flow)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			for _, lk := range p.Links {
				if tp.Link(lk).Class == topo.AcrossLink {
					t.Fatalf("failure-free path %s→%s crosses an across link",
						tp.Node(hosts[i]).Name, tp.Node(hosts[j]).Name)
				}
			}
		}
	}
}

func TestLSALostOnDeadWireStillConvergesViaFlooding(t *testing.T) {
	// Fail two links at once: some LSA copies die on the second dead wire,
	// but epidemic flooding over the remaining graph delivers them.
	l := newFatTreeLab(t, 4, Config{})
	links := l.topo.LiveLinks()
	l.sim.After(0, func(sim.Time) {
		l.nw.FailLink(links[40].ID)
		l.nw.FailLink(links[44].ID)
	})
	if err := l.sim.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// All agg LSDBs agree on the latest sequence numbers.
	var wantSeq map[topo.NodeID]uint64
	for _, id := range l.topo.NodesOfKind(topo.Agg) {
		inst := l.dom.Instance(id)
		got := map[topo.NodeID]uint64{}
		for _, lsa := range inst.lsdb {
			if lsa == nil {
				continue
			}
			got[lsa.Origin] = lsa.Seq
		}
		if wantSeq == nil {
			wantSeq = got
			continue
		}
		for origin, seq := range wantSeq {
			if got[origin] != seq {
				t.Fatalf("%s has seq %d for %s, another switch has %d",
					l.topo.Node(id).Name, got[origin], l.topo.Node(origin).Name, seq)
			}
		}
	}
}

func TestPortUpReformsAdjacency(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	p := l.topo.LiveLinks()[30]
	l.sim.After(0, func(sim.Time) { l.nw.FailLink(p.ID) })
	l.sim.At(3*sim.Second, func(sim.Time) { l.nw.RestoreLink(p.ID) })
	if err := l.sim.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Both endpoints re-advertise the adjacency.
	for _, end := range []topo.NodeID{p.A, p.B} {
		if l.topo.Node(end).Kind == topo.Host {
			continue
		}
		inst := l.dom.Instance(p.A)
		lsa := inst.lsaOf(end)
		found := false
		for _, a := range lsa.Adjacencies {
			if a.Link == p.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s's LSA lacks restored adjacency", l.topo.Node(end).Name)
		}
	}
}

func TestMaxSPFWaitCapsAtHoldMax(t *testing.T) {
	cfg := Config{
		SPFDelay:       20 * time.Millisecond,
		SPFHoldInitial: 100 * time.Millisecond,
		SPFHoldMax:     400 * time.Millisecond,
	}
	l := newFatTreeLab(t, 4, cfg)
	link := l.topo.LiveLinks()[40].ID
	up := false
	stop := l.sim.Ticker(50*time.Millisecond, func(sim.Time) {
		l.nw.SetLinkState(link, up)
		up = !up
	})
	defer stop()
	if err := l.sim.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var maxWait time.Duration
	for _, id := range l.topo.NodesOfKind(topo.Agg) {
		if w := l.dom.Instance(id).MaxSPFWait(); w > maxWait {
			maxWait = w
		}
	}
	// Wait is bounded by hold max plus slack for the delay itself.
	if maxWait > 700*time.Millisecond {
		t.Fatalf("max wait %v exceeds configured hold max", maxWait)
	}
	if maxWait < 250*time.Millisecond {
		t.Fatalf("max wait %v never reached backoff", maxWait)
	}
}

// TestInstanceIsNilSafe: Instance indexes a slice by NodeID, and callers
// hand it hosts, topo.None and ids of other topologies.
func TestInstanceIsNilSafe(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	for _, id := range []topo.NodeID{l.topo.NodesOfKind(topo.Host)[0], topo.None, topo.NodeID(len(l.topo.Nodes)), 1 << 20} {
		if l.dom.Instance(id) != nil || l.dom.NodeDown(id) {
			t.Errorf("Instance(%d) = %v, NodeDown = %v, want nil and false", id, l.dom.Instance(id), l.dom.NodeDown(id))
		}
		l.dom.SetNodeDown(0, id, true) // must not panic
	}
	if l.dom.Instance(l.topo.NodesOfKind(topo.ToR)[0]) == nil {
		t.Error("a ToR has no instance")
	}
}

// mustNetwork builds a network over tp.
func mustNetwork(t testing.TB, s *sim.Simulator, tp *topo.Topology) *network.Network {
	t.Helper()
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// flowOf builds a probe flow key between two hosts.
func flowOf(tp *topo.Topology, a, b topo.NodeID) fib.FlowKey {
	return fib.FlowKey{
		Src: tp.Node(a).Addr, Dst: tp.Node(b).Addr,
		Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9,
	}
}
