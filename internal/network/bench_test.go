package network

import (
	"testing"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// forwardChain builds a static-routed 3-switch chain
// (a — tor1 — agg — tor2 — b) so the benchmark measures exactly the
// per-packet forwarding machinery (FIB lookup, transmit, queueing, arrival
// events) with no control plane running: the event queue drains between
// packets.
func forwardChain(tb testing.TB) (*sim.Simulator, *Network, topo.NodeID, netaddr.Addr) {
	tb.Helper()
	tp := topo.NewTopology("chain")
	t1 := tp.AddNode(topo.Node{Name: "tor1", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	ag := tp.AddNode(topo.Node{Name: "agg", Kind: topo.Agg, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.2")})
	t2 := tp.AddNode(topo.Node{Name: "tor2", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.3"), Subnet: netaddr.MustParsePrefix("10.11.1.0/24")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.2")})
	b := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.1.2")})
	for _, pair := range [][2]topo.NodeID{{a, t1}, {b, t2}} {
		if _, err := tp.AddLink(pair[0], pair[1], topo.HostLink); err != nil {
			tb.Fatal(err)
		}
	}
	l1, err := tp.AddLink(t1, ag, topo.EdgeLink)
	if err != nil {
		tb.Fatal(err)
	}
	l2, err := tp.AddLink(ag, t2, topo.EdgeLink)
	if err != nil {
		tb.Fatal(err)
	}
	s := sim.New(1)
	nw, err := New(s, tp, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	dstNet := netaddr.MustParsePrefix("10.11.1.0/24")
	p1, _ := tp.Link(l1).PortOf(t1)
	if err := nw.Table(t1).Add(fib.Route{Prefix: dstNet, Source: fib.Static,
		NextHops: []fib.NextHop{{Port: p1, Via: tp.Node(ag).Addr}}}); err != nil {
		tb.Fatal(err)
	}
	p2, _ := tp.Link(l2).PortOf(ag)
	if err := nw.Table(ag).Add(fib.Route{Prefix: dstNet, Source: fib.Static,
		NextHops: []fib.NextHop{{Port: p2, Via: tp.Node(t2).Addr}}}); err != nil {
		tb.Fatal(err)
	}
	return s, nw, a, tp.Node(b).Addr
}

// BenchmarkForwardPacket times the path TestForwardPacketNoAlloc holds to
// its allocs/op budget: one op is one packet traversing three
// switch hops end to end (3 FIB lookups, 4 transmissions, 7 scheduled
// events).
func BenchmarkForwardPacket(b *testing.B) {
	s, nw, a, dst := forwardChain(b)
	flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: ProtoUDP, SrcPort: 40000, DstPort: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := nw.NewPacket()
		pkt.Flow, pkt.Size = flow, 1488
		nw.SendFromHost(a, pkt)
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := nw.Stats(); st.Delivered != uint64(b.N) {
		b.Fatalf("delivered %d of %d", st.Delivered, b.N)
	}
}
