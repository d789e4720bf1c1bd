package network

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// twoHostsOneToR builds host-a — tor — host-b.
func twoHostsOneToR(t *testing.T) (*sim.Simulator, *Network, topo.NodeID, topo.NodeID) {
	t.Helper()
	tp := topo.NewTopology("tiny")
	tor := tp.AddNode(topo.Node{Name: "tor", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.11.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.2")})
	b := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1,
		Addr: netaddr.MustParseAddr("10.11.0.3")})
	if _, err := tp.AddLink(a, tor, topo.HostLink); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.AddLink(b, tor, topo.HostLink); err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	nw, err := New(s, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, nw, a, b
}

func flowTo(dst netaddr.Addr) fib.FlowKey {
	return fib.FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst, Proto: ProtoUDP, SrcPort: 1, DstPort: 2}
}

func TestDeliveryAcrossToR(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	bAddr := nw.Topology().Node(b).Addr
	var gotAt sim.Time
	var got *Packet
	nw.SetHostReceiver(b, func(now sim.Time, pkt *Packet) {
		gotAt, got = now, pkt
	})
	pkt := &Packet{Flow: flowTo(bAddr), Size: 1488}
	nw.SendFromHost(a, pkt)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Hops != 1 {
		t.Fatalf("hops = %d, want 1", got.Hops)
	}
	// Expected: 2 × (tx + prop) + 1 × proc.
	cfg := nw.Config()
	tx := time.Duration(float64(1488*8) / cfg.BandwidthBps * float64(time.Second))
	want := sim.Time(0).Add(2*(tx+cfg.PropDelay) + cfg.ProcDelay)
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	st := nw.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.TotalDrops() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoRouteDrop(t *testing.T) {
	s, nw, a, _ := twoHostsOneToR(t)
	var cause DropCause
	nw.OnDrop(func(_ sim.Time, _ topo.NodeID, _ *Packet, c DropCause) { cause = c })
	nw.SendFromHost(a, &Packet{Flow: flowTo(netaddr.MustParseAddr("10.99.0.1")), Size: 100})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if cause != DropNoRoute {
		t.Fatalf("cause = %v, want no-route", cause)
	}
}

func TestNotForMeDrop(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	// Install a bogus ToR route steering an alien address at host b.
	torID := nw.Topology().FindNode("tor").ID
	l := nw.Topology().LinksBetween(torID, b)[0]
	port, _ := l.PortOf(torID)
	err := nw.Table(torID).Add(fib.Route{
		Prefix:   netaddr.MustParsePrefix("10.99.0.0/24"),
		Source:   fib.Static,
		NextHops: []fib.NextHop{{Port: port}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cause DropCause
	nw.OnDrop(func(_ sim.Time, _ topo.NodeID, _ *Packet, c DropCause) { cause = c })
	nw.SendFromHost(a, &Packet{Flow: flowTo(netaddr.MustParseAddr("10.99.0.7")), Size: 100})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if cause != DropNotForMe {
		t.Fatalf("cause = %v, want not-for-me", cause)
	}
}

func TestLinkDownBlackholesUntilDetected(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	bAddr := nw.Topology().Node(b).Addr
	torID := nw.Topology().FindNode("tor").ID
	link := nw.Topology().LinksBetween(torID, b)[0]

	delivered := 0
	nw.SetHostReceiver(b, func(sim.Time, *Packet) { delivered++ })

	var events []struct {
		at   sim.Time
		up   bool
		node topo.NodeID
	}
	nw.OnPortState(func(now sim.Time, node topo.NodeID, port int, up bool) {
		events = append(events, struct {
			at   sim.Time
			up   bool
			node topo.NodeID
		}{now, up, node})
	})

	s.At(10*sim.Millisecond, func(sim.Time) { nw.FailLink(link.ID) })
	// Packet sent while down but before detection: blackholed.
	s.At(20*sim.Millisecond, func(sim.Time) {
		nw.SendFromHost(a, &Packet{Flow: flowTo(bAddr), Size: 100})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("packet delivered over dead link")
	}
	st := nw.Stats()
	if st.Drops[DropLinkDown] != 1 {
		t.Fatalf("drops = %+v", st.Drops)
	}
	// Both endpoints detect at fail + 60 ms.
	if len(events) != 2 {
		t.Fatalf("port events = %d, want 2", len(events))
	}
	want := sim.Time(10 * sim.Millisecond).Add(nw.Config().DetectionDelay)
	for _, e := range events {
		if e.at != want || e.up {
			t.Fatalf("event %+v, want down at %v", e, want)
		}
	}
	if nw.PortBelievedUp(b, 0) {
		t.Fatal("host b still believes port up")
	}
}

func TestFlapWithinDetectionWindowCollapses(t *testing.T) {
	s, nw, _, b := twoHostsOneToR(t)
	torID := nw.Topology().FindNode("tor").ID
	link := nw.Topology().LinksBetween(torID, b)[0]
	fired := 0
	nw.OnPortState(func(sim.Time, topo.NodeID, int, bool) { fired++ })
	s.At(10*sim.Millisecond, func(sim.Time) { nw.FailLink(link.ID) })
	s.At(12*sim.Millisecond, func(sim.Time) { nw.RestoreLink(link.ID) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("flap inside window produced %d belief changes, want 0", fired)
	}
	if !nw.PortBelievedUp(b, 0) {
		t.Fatal("belief should remain up")
	}
}

func TestRestoreReenablesForwarding(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	bAddr := nw.Topology().Node(b).Addr
	torID := nw.Topology().FindNode("tor").ID
	link := nw.Topology().LinksBetween(torID, b)[0]
	delivered := 0
	nw.SetHostReceiver(b, func(sim.Time, *Packet) { delivered++ })
	s.At(1*sim.Millisecond, func(sim.Time) { nw.FailLink(link.ID) })
	s.At(200*sim.Millisecond, func(sim.Time) { nw.RestoreLink(link.ID) })
	s.At(400*sim.Millisecond, func(sim.Time) {
		nw.SendFromHost(a, &Packet{Flow: flowTo(bAddr), Size: 100})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("packet not delivered after restore")
	}
}

func TestQueueOverflowDropsTail(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	bAddr := nw.Topology().Node(b).Addr
	delivered := 0
	nw.SetHostReceiver(b, func(sim.Time, *Packet) { delivered++ })
	// Send far more than the queue holds in one instant; the host link
	// serializes them and the tail overflows.
	burst := nw.Config().QueueBytes / 1488 * 3
	for i := 0; i < burst; i++ {
		nw.SendFromHost(a, &Packet{Flow: flowTo(bAddr), Size: 1488})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Drops[DropQueueOverflow] == 0 {
		t.Fatal("no overflow drops")
	}
	if delivered == 0 {
		t.Fatal("head of burst should be delivered")
	}
	if delivered+int(st.Drops[DropQueueOverflow]) != burst {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, st.Drops[DropQueueOverflow], burst)
	}
}

// TestBurstOnFailingDirection queues a 50-packet burst on one link
// direction, fails that direction mid-burst and restores it, then sends two
// more bursts: one into the dead wire and one that joins the tail of the
// queue after the restore. Every packet's fate and time is pinned: a packet
// dies if the direction is down when it would arrive, whatever it was when
// the packet was queued, and the survivors keep the serialization spacing.
// The restore lands on the very instant a queued packet arrives; the packet
// was sent first, so it goes first and is lost.
func TestBurstOnFailingDirection(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	cfg := nw.Config()
	bAddr := nw.Topology().Node(b).Addr
	link := nw.Topology().LinksOf(a)[0].ID
	const size = 1488
	tx := sim.Time(float64(size*8) / cfg.BandwidthBps * float64(sim.Second)) // 11.904 µs
	prop, proc := sim.Time(cfg.PropDelay), sim.Time(cfg.ProcDelay)
	failAt, restoreAt := 200*sim.Microsecond, 34*tx+prop // packet 33 reaches the ToR
	deadSendAt, lateSendAt := 300*sim.Microsecond, 500*sim.Microsecond

	got := make([]string, 70)
	nw.SetHostReceiver(b, func(now sim.Time, pkt *Packet) {
		got[pkt.Flow.SrcPort] = fmt.Sprintf("delivered at %v", now)
	})
	nw.OnDrop(func(now sim.Time, at topo.NodeID, pkt *Packet, cause DropCause) {
		got[pkt.Flow.SrcPort] = fmt.Sprintf("%v at %v on %s", cause, now, nw.Topology().Node(at).Name)
	})
	send := func(from, to int) {
		for i := from; i < to; i++ {
			pkt := nw.NewPacket()
			pkt.Flow, pkt.Size = flowTo(bAddr), size
			pkt.Flow.SrcPort = uint16(i)
			nw.SendFromHost(a, pkt)
		}
	}
	s.At(failAt, func(sim.Time) { nw.SetLinkDirectionState(link, a, false) })
	s.At(deadSendAt, func(sim.Time) {
		send(50, 60)
		s.At(restoreAt, func(sim.Time) { nw.SetLinkDirectionState(link, a, true) })
	})
	s.At(lateSendAt, func(sim.Time) { send(60, 70) })
	send(0, 50)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}

	want := make([]string, 70)
	for i := range want {
		var atToR sim.Time // when the packet reaches the ToR
		switch {
		case i < 50:
			atToR = sim.Time(i+1)*tx + prop
		case i < 60:
			want[i] = fmt.Sprintf("%v at %v on a", DropLinkDown, deadSendAt)
			continue
		default: // behind the first burst's tail, which leaves a at 50·tx
			atToR = sim.Time(i-60+51)*tx + prop
		}
		if atToR >= failAt && atToR <= restoreAt {
			want[i] = fmt.Sprintf("%v at %v on a", DropLinkDown, atToR)
		} else {
			want[i] = fmt.Sprintf("delivered at %v", atToR+proc+tx+prop)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("packet %d: %s, want %s", i, got[i], want[i])
		}
	}
	st := nw.Stats()
	if st.Sent != 70 || st.Delivered != 42 || st.Drops[DropLinkDown] != 28 || st.TotalDrops() != 28 {
		t.Fatalf("sent %d, delivered %d, link-down drops %d of %d; want 70, 42, 28 of 28",
			st.Sent, st.Delivered, st.Drops[DropLinkDown], st.TotalDrops())
	}
}

func TestTTLExpiresInRoutingLoop(t *testing.T) {
	// a — s1 = s2, with s1 and s2 pointing the destination at each other.
	tp := topo.NewTopology("loop")
	s1 := tp.AddNode(topo.Node{Name: "s1", Kind: topo.Agg, NumPorts: 4, Addr: netaddr.MustParseAddr("10.12.0.1")})
	s2 := tp.AddNode(topo.Node{Name: "s2", Kind: topo.Agg, NumPorts: 4, Addr: netaddr.MustParseAddr("10.12.1.1")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.0.2")})
	if _, err := tp.AddLink(a, s1, topo.HostLink); err != nil {
		t.Fatal(err)
	}
	l12, err := tp.AddLink(s1, s2, topo.AcrossLink)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	nw, err := New(s, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dst := netaddr.MustParsePrefix("10.99.0.0/24")
	p12, _ := tp.Link(l12).PortOf(s1)
	p21, _ := tp.Link(l12).PortOf(s2)
	if err := nw.Table(s1).Add(fib.Route{Prefix: dst, Source: fib.Static, NextHops: []fib.NextHop{{Port: p12}}}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Table(s2).Add(fib.Route{Prefix: dst, Source: fib.Static, NextHops: []fib.NextHop{{Port: p21}}}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Table(a).Add(fib.Route{Prefix: dst, Source: fib.Static, NextHops: []fib.NextHop{{Port: 0}}}); err != nil {
		t.Fatal(err)
	}
	var cause DropCause
	var hops int
	nw.OnDrop(func(_ sim.Time, _ topo.NodeID, pkt *Packet, c DropCause) { cause, hops = c, pkt.Hops })
	nw.SendFromHost(a, &Packet{Flow: flowTo(netaddr.MustParseAddr("10.99.0.1")), Size: 100})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if cause != DropTTLExpired {
		t.Fatalf("cause = %v, want ttl-expired", cause)
	}
	if hops != nw.Config().TTL {
		t.Fatalf("hops = %d, want %d", hops, nw.Config().TTL)
	}
}

func TestECMPEliminationAfterDetection(t *testing.T) {
	// a — tor with two uplinks to s1, s2, both advertising the same
	// destination; fail the s1 uplink and confirm flows move to s2 only
	// after detection.
	tp := topo.NewTopology("ecmp")
	tor := tp.AddNode(topo.Node{Name: "tor", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.11.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	s1 := tp.AddNode(topo.Node{Name: "s1", Kind: topo.Agg, NumPorts: 4, Addr: netaddr.MustParseAddr("10.12.0.1")})
	s2 := tp.AddNode(topo.Node{Name: "s2", Kind: topo.Agg, NumPorts: 4, Addr: netaddr.MustParseAddr("10.12.1.1")})
	b := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.1.2")})
	btor := tp.AddNode(topo.Node{Name: "btor", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.11.1.1"), Subnet: netaddr.MustParsePrefix("10.11.1.0/24")})
	a := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.0.2")})
	mustLink := func(x, y topo.NodeID, c topo.LinkClass) topo.LinkID {
		id, err := tp.AddLink(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustLink(a, tor, topo.HostLink)
	up1 := mustLink(tor, s1, topo.EdgeLink)
	mustLink(tor, s2, topo.EdgeLink)
	mustLink(s1, btor, topo.EdgeLink)
	mustLink(s2, btor, topo.EdgeLink)
	mustLink(b, btor, topo.HostLink)

	s := sim.New(1)
	nw, err := New(s, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dstNet := netaddr.MustParsePrefix("10.11.1.0/24")
	addRoute := func(node topo.NodeID, hops ...fib.NextHop) {
		if err := nw.Table(node).Add(fib.Route{Prefix: dstNet, Source: fib.OSPF, NextHops: hops}); err != nil {
			t.Fatal(err)
		}
	}
	portOf := func(l topo.LinkID, n topo.NodeID) int {
		p, _ := tp.Link(l).PortOf(n)
		return p
	}
	addRoute(tor, fib.NextHop{Port: portOf(up1, tor)}, fib.NextHop{Port: 2}) // ports 1,2 upward
	addRoute(s1, fib.NextHop{Port: 1})
	addRoute(s2, fib.NextHop{Port: 1})

	delivered := 0
	nw.SetHostReceiver(b, func(sim.Time, *Packet) { delivered++ })
	bAddr := tp.Node(b).Addr

	// Spray 40 flows pre-failure; both uplinks should carry traffic.
	sendSpray := func(base int) {
		for i := 0; i < 40; i++ {
			nw.SendFromHost(a, &Packet{Flow: fib.FlowKey{
				Src: tp.Node(a).Addr, Dst: bAddr, Proto: ProtoUDP,
				SrcPort: uint16(base + i), DstPort: 9,
			}, Size: 200})
		}
	}
	sendSpray(1000)
	s.At(100*sim.Millisecond, func(sim.Time) { nw.FailLink(up1) })
	// After failure + detection: all flows survive via s2.
	s.At(200*sim.Millisecond, func(sim.Time) { sendSpray(2000) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if delivered != 80 {
		t.Fatalf("delivered = %d, want 80 (ECMP elimination failed): %+v", delivered, st.Drops)
	}
}

func TestLinkStatsCountTraffic(t *testing.T) {
	s, nw, a, b := twoHostsOneToR(t)
	bAddr := nw.Topology().Node(b).Addr
	nw.SetHostReceiver(b, func(sim.Time, *Packet) {})
	for i := 0; i < 10; i++ {
		nw.SendFromHost(a, &Packet{Flow: flowTo(bAddr), Size: 1488})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	aLink := nw.Topology().LinksOf(a)[0]
	up := nw.LinkStatsFor(aLink.ID, a)
	if up.Packets != 10 || up.Bytes != 10*1488 {
		t.Fatalf("uplink stats = %+v", up)
	}
	// The burst queued behind the first packet: peak backlog > 0.
	if up.PeakBacklog <= 0 {
		t.Fatalf("peak backlog = %v, want > 0 after a burst", up.PeakBacklog)
	}
	// Reverse direction idle.
	down := nw.LinkStatsFor(aLink.ID, nw.Topology().FindNode("tor").ID)
	if down.Packets != 0 {
		t.Fatalf("reverse direction carried %d packets", down.Packets)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	_, nw, _, _ := twoHostsOneToR(t)
	st := nw.Stats()
	st.Drops[DropNoRoute] = 99
	if nw.Stats().Drops[DropNoRoute] == 99 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	d := DefaultConfig()
	if cfg != d {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	custom := Config{BandwidthBps: 1e8}.withDefaults()
	if custom.BandwidthBps != 1e8 || custom.TTL != d.TTL {
		t.Fatal("partial defaults broken")
	}
}
