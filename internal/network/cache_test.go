package network

import (
	"testing"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFlowCacheFallbackAfterDetection drives the paper's failure sequence
// through the real data plane with the flow cache enabled: a steady flow is
// forwarded via the primary /24 route (and cached), the primary link dies,
// and once the failure detector fires the *cached* result must be
// invalidated so the next packet takes the /16 backup route — then return
// to the primary after the link heals.
func TestFlowCacheFallbackAfterDetection(t *testing.T) {
	tp := topo.NewTopology("diamond")
	t1 := tp.AddNode(topo.Node{Name: "tor1", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	ag1 := tp.AddNode(topo.Node{Name: "agg1", Kind: topo.Agg, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.2")})
	ag2 := tp.AddNode(topo.Node{Name: "agg2", Kind: topo.Agg, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.3")})
	t2 := tp.AddNode(topo.Node{Name: "tor2", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.12.0.4"), Subnet: netaddr.MustParsePrefix("10.11.1.0/24")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.2")})
	b := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.1.2")})
	for _, pair := range [][2]topo.NodeID{{a, t1}, {b, t2}} {
		if _, err := tp.AddLink(pair[0], pair[1], topo.HostLink); err != nil {
			t.Fatal(err)
		}
	}
	addEdge := func(x, y topo.NodeID) topo.LinkID {
		id, err := tp.AddLink(x, y, topo.EdgeLink)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	lPrimary := addEdge(t1, ag1)
	lBackup := addEdge(t1, ag2)
	lAg1Down := addEdge(ag1, t2)
	lAg2Down := addEdge(ag2, t2)

	s := sim.New(1)
	nw, err := New(s, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dstNet := netaddr.MustParsePrefix("10.11.1.0/24")
	dcn := netaddr.MustParsePrefix("10.11.0.0/16")
	install := func(node topo.NodeID, p netaddr.Prefix, src fib.Source, link topo.LinkID) {
		port, _ := tp.Link(link).PortOf(node)
		other, _ := tp.Link(link).Other(node)
		if err := nw.Table(node).Add(fib.Route{Prefix: p, Source: src,
			NextHops: []fib.NextHop{{Port: port, Via: tp.Node(other).Addr}}}); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's shape on tor1: an OSPF /24 via agg1 over a static /16
	// backup via agg2; both aggs know the destination subnet.
	install(t1, dstNet, fib.OSPF, lPrimary)
	install(t1, dcn, fib.Static, lBackup)
	install(ag1, dstNet, fib.OSPF, lAg1Down)
	install(ag2, dstNet, fib.OSPF, lAg2Down)

	flow := fib.FlowKey{Src: tp.Node(a).Addr, Dst: tp.Node(b).Addr,
		Proto: ProtoUDP, SrcPort: 40000, DstPort: 9}
	send := func() {
		pkt := nw.NewPacket()
		pkt.Flow, pkt.Size = flow, 1488
		nw.SendFromHost(a, pkt)
	}
	viaPrimary := func() uint64 { return nw.LinkStatsFor(lPrimary, t1).Packets }
	viaBackup := func() uint64 { return nw.LinkStatsFor(lBackup, t1).Packets }

	// Warm the cache: two packets via the primary.
	send()
	send()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if viaPrimary() != 2 || viaBackup() != 0 {
		t.Fatalf("warm-up took primary=%d backup=%d, want 2/0", viaPrimary(), viaBackup())
	}

	// Primary dies. Before detection fires the cached /24 result still
	// sends packets into the dead wire — the paper's blackhole window.
	nw.FailLink(lPrimary)
	send()
	if err := s.Run(s.Now().Add(nw.Config().DetectionDelay / 2)); err != nil {
		t.Fatal(err)
	}
	if got := nw.Stats().Drops[DropLinkDown]; got != 1 {
		t.Fatalf("blackhole window drops = %d, want 1", got)
	}

	// After the detector fires, the invalidated cache must re-resolve to
	// the /16 backup.
	if err := s.Run(s.Now().Add(nw.Config().DetectionDelay)); err != nil {
		t.Fatal(err)
	}
	send()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if viaBackup() != 1 {
		t.Fatalf("post-detection packet did not take the backup route (backup=%d)", viaBackup())
	}

	// Link heals: after detection the primary wins again.
	nw.RestoreLink(lPrimary)
	if err := s.Run(s.Now().Add(2 * nw.Config().DetectionDelay)); err != nil {
		t.Fatal(err)
	}
	send()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := viaPrimary(); got != 3 {
		t.Fatalf("post-heal packet not on primary (primary=%d, want 3)", got)
	}
	if st := nw.Stats(); st.Delivered != 4 {
		t.Fatalf("delivered = %d, want 4", st.Delivered)
	}
}

// TestForwardPacketNoAlloc locks the headline claim in as a test, not just
// a benchmark: steady-state forwarding of a pooled packet through three
// switch hops performs zero heap allocations. The drop path is held to the
// same budget: a packet that dies for want of a route, on a dead wire or in
// a loss filter allocates nothing either, with or without a drop observer.
func TestForwardPacketNoAlloc(t *testing.T) {
	s, nw, a, dst := forwardChain(t)
	flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: ProtoUDP, SrcPort: 40000, DstPort: 9}
	run := func() {
		pkt := nw.NewPacket()
		pkt.Flow, pkt.Size = flow, 1488
		nw.SendFromHost(a, pkt)
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // warm pools and caches
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Fatalf("steady-state forwarding allocates %.2f per packet, want 0", allocs)
	}

	// Arrivals queued behind a link direction's head: a burst of eight
	// leaves the host at one instant, so seven wait in the direction's FIFO
	// under reserved sequence numbers. Queuing and rescheduling them
	// allocates nothing either.
	burst := func() {
		for i := 0; i < 8; i++ {
			pkt := nw.NewPacket()
			pkt.Flow, pkt.Size = flow, 1488
			nw.SendFromHost(a, pkt)
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if peak := s.PeakPending(); peak >= 8 {
		t.Fatalf("a burst of 8 peaked at %d pending events: queued arrivals were scheduled, not held", peak)
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs > 0 {
		t.Fatalf("queued arrivals allocate %.2f per burst, want 0", allocs)
	}

	drops := []struct {
		name  string
		cause DropCause
		setup func(nw *Network, a topo.NodeID, flow *fib.FlowKey)
	}{
		{"no-route", DropNoRoute, func(nw *Network, a topo.NodeID, flow *fib.FlowKey) {
			flow.Dst = netaddr.MustParseAddr("10.11.9.9") // no ToR holds a route for it
		}},
		{"dead-link", DropLinkDown, func(nw *Network, a topo.NodeID, flow *fib.FlowKey) {
			// The host's wire dies and no detector ever tells it: every
			// packet goes into the dead wire.
			nw.SetDetectionFilter(func(sim.Time, topo.NodeID, int, bool) bool { return true })
			nw.FailLink(nw.Topology().LinksOf(a)[0].ID)
		}},
		{"loss-filter", DropInjected, func(nw *Network, a topo.NodeID, flow *fib.FlowKey) {
			nw.SetLossFilter(func(sim.Time, topo.NodeID, int, *Packet) bool { return true })
		}},
	}
	for _, c := range drops {
		for _, observed := range []bool{false, true} {
			name := c.name
			if observed {
				name += "/observed"
			}
			t.Run(name, func(t *testing.T) {
				s, nw, a, dst := forwardChain(t)
				flow := fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
					Proto: ProtoUDP, SrcPort: 40000, DstPort: 9}
				c.setup(nw, a, &flow)
				seen := 0
				if observed {
					nw.OnDrop(func(sim.Time, topo.NodeID, *Packet, DropCause) { seen++ })
				}
				run := func() {
					pkt := nw.NewPacket()
					pkt.Flow, pkt.Size = flow, 1488
					nw.SendFromHost(a, pkt)
					if err := s.RunUntilIdle(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 10; i++ {
					run()
				}
				if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
					t.Fatalf("steady-state drop allocates %.2f per packet, want 0", allocs)
				}
				st := nw.Stats()
				if st.Delivered != 0 || st.Drops[c.cause] != st.Sent {
					t.Fatalf("sent %d, delivered %d, %v drops %d: the case did not drop every packet on its path",
						st.Sent, st.Delivered, c.cause, st.Drops[c.cause])
				}
				if observed && uint64(seen) != st.Sent {
					t.Fatalf("observer saw %d drops of %d", seen, st.Sent)
				}
			})
		}
	}
}
