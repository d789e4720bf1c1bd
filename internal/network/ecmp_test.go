package network

import (
	"testing"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ecmpRig: one host, a ToR with two uplinks to two spines that both reach
// a destination ToR + host.
func ecmpRig(t *testing.T) (*sim.Simulator, *Network, topo.NodeID, netaddr.Addr, [2]topo.LinkID) {
	t.Helper()
	tp := topo.NewTopology("ecmp")
	tor := tp.AddNode(topo.Node{Name: "tor", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.11.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	s1 := tp.AddNode(topo.Node{Name: "s1", Kind: topo.Core, NumPorts: 4, Addr: netaddr.MustParseAddr("10.13.0.1")})
	s2 := tp.AddNode(topo.Node{Name: "s2", Kind: topo.Core, NumPorts: 4, Addr: netaddr.MustParseAddr("10.13.1.1")})
	dtor := tp.AddNode(topo.Node{Name: "dtor", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.11.1.1"), Subnet: netaddr.MustParsePrefix("10.11.1.0/24")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.0.2")})
	b := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.1.2")})
	mustLink := func(x, y topo.NodeID, c topo.LinkClass) topo.LinkID {
		id, err := tp.AddLink(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustLink(a, tor, topo.HostLink)
	u1 := mustLink(tor, s1, topo.EdgeLink)
	u2 := mustLink(tor, s2, topo.EdgeLink)
	mustLink(s1, dtor, topo.EdgeLink)
	mustLink(s2, dtor, topo.EdgeLink)
	mustLink(b, dtor, topo.HostLink)

	s := sim.New(5)
	nw, err := New(s, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dst := netaddr.MustParsePrefix("10.11.1.0/24")
	port := func(l topo.LinkID, n topo.NodeID) int {
		p, _ := tp.Link(l).PortOf(n)
		return p
	}
	if err := nw.Table(tor).Add(fib.Route{Prefix: dst, Source: fib.OSPF, NextHops: []fib.NextHop{
		{Port: port(u1, tor)}, {Port: port(u2, tor)},
	}}); err != nil {
		t.Fatal(err)
	}
	for _, sw := range []topo.NodeID{s1, s2} {
		if err := nw.Table(sw).Add(fib.Route{Prefix: dst, Source: fib.OSPF, NextHops: []fib.NextHop{{Port: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	return s, nw, a, tp.Node(b).Addr, [2]topo.LinkID{u1, u2}
}

func TestPerFlowECMPSticksToOnePath(t *testing.T) {
	s, nw, a, bAddr, ups := ecmpRig(t)
	flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: bAddr, Proto: ProtoUDP, SrcPort: 7, DstPort: 9}
	for i := 0; i < 100; i++ {
		nw.SendFromHost(a, &Packet{Flow: flow, Size: 200})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	tor := nw.Topology().FindNode("tor").ID
	c1 := nw.LinkStatsFor(ups[0], tor).Packets
	c2 := nw.LinkStatsFor(ups[1], tor).Packets
	if c1+c2 != 100 {
		t.Fatalf("uplinks carried %d+%d", c1, c2)
	}
	if c1 != 0 && c2 != 0 {
		t.Fatalf("per-flow ECMP split one flow: %d/%d", c1, c2)
	}
}
