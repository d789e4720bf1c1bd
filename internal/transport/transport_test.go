package transport

import (
	"testing"
	"time"

	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// rig is two hosts behind one ToR.
type rig struct {
	sim  *sim.Simulator
	nw   *network.Network
	a, b *Stack
	link topo.LinkID // host b's access link
}

func newRig(t testing.TB) *rig {
	t.Helper()
	tp := topo.NewTopology("rig")
	tor := tp.AddNode(topo.Node{Name: "tor", Kind: topo.ToR, NumPorts: 4,
		Addr: netaddr.MustParseAddr("10.11.0.1"), Subnet: netaddr.MustParsePrefix("10.11.0.0/24")})
	ha := tp.AddNode(topo.Node{Name: "a", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.0.2")})
	hb := tp.AddNode(topo.Node{Name: "b", Kind: topo.Host, NumPorts: 1, Addr: netaddr.MustParseAddr("10.11.0.3")})
	if _, err := tp.AddLink(ha, tor, topo.HostLink); err != nil {
		t.Fatal(err)
	}
	lb, err := tp.AddLink(hb, tor, topo.HostLink)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(3)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewStack(nw, ha)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStack(nw, hb)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: s, nw: nw, a: sa, b: sb, link: lb}
}

func TestUDPSourceAndSink(t *testing.T) {
	r := newRig(t)
	sink, err := r.b.NewUDPSink(9)
	if err != nil {
		t.Fatal(err)
	}
	src := r.a.StartUDPSource(r.b.Addr(), 9, 1448, 100*time.Microsecond)
	r.sim.At(10*sim.Millisecond, func(sim.Time) { src.Stop() })
	if err := r.sim.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if src.Sent() < 99 || src.Sent() > 100 {
		t.Fatalf("sent = %d, want ≈ 100", src.Sent())
	}
	if uint64(len(sink.Arrivals)) != src.Sent() {
		t.Fatalf("arrivals = %d, sent %d", len(sink.Arrivals), src.Sent())
	}
	for i, a := range sink.Arrivals {
		if a.Seq != uint64(i) {
			t.Fatalf("arrival %d has seq %d", i, a.Seq)
		}
		if a.Size != 1448 {
			t.Fatalf("payload size = %d", a.Size)
		}
		if d := a.Arrived.Sub(a.SentAt); d <= 0 || d > time.Millisecond {
			t.Fatalf("delay = %v", d)
		}
	}
}

func TestUDPBindRejectsDuplicates(t *testing.T) {
	r := newRig(t)
	if _, err := r.b.NewUDPSink(9); err != nil {
		t.Fatal(err)
	}
	if _, err := r.b.NewUDPSink(9); err == nil {
		t.Fatal("duplicate bind accepted")
	}
}

func TestTCPBulkTransferClean(t *testing.T) {
	r := newRig(t)
	// 100 KB keeps the slow-start overshoot under the 128-packet queue;
	// larger unpaced bursts realistically overflow it (see
	// TestTCPSlowStartOvershootOverflowsQueue).
	const total = 100 * 1024
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(total) })
	if err := r.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	if c.Retransmits() != 0 || c.Timeouts() != 0 {
		t.Fatalf("clean transfer had %d rtx / %d timeouts", c.Retransmits(), c.Timeouts())
	}
	if c.Acked() != total {
		t.Fatalf("acked = %d", c.Acked())
	}
}

func TestTCPRTTEstimation(t *testing.T) {
	r := newRig(t)
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(50 * 1024) })
	if err := r.sim.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !c.srttValid {
		t.Fatal("no RTT sample taken")
	}
	if c.srtt <= 0 || c.srtt > time.Millisecond {
		t.Fatalf("srtt = %v, want sub-millisecond LAN RTT", c.srtt)
	}
	// RTO floored at MinRTO despite tiny RTT.
	if c.RTO() != c.cfg.MinRTO {
		t.Fatalf("rto = %v, want floor %v", c.RTO(), c.cfg.MinRTO)
	}
}

func TestTCPFastRetransmitOnSingleLoss(t *testing.T) {
	r := newRig(t)
	const total = 40 * 1024
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	// Drop exactly one data segment (the 4th MSS) once, at the sender host.
	dropped := false
	r.nw.SetLossFilter(func(_ sim.Time, at topo.NodeID, _ int, pkt *network.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if !ok || dropped || at != r.a.Host() {
			return false
		}
		if seg.Len > 0 && seg.Seq == int64(3*MSS) {
			dropped = true
			return true
		}
		return false
	})
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	start := r.sim.Now()
	var done sim.Time
	c.OnEstablished(func(sim.Time) { c.Send(total) })
	stopProbe := r.sim.Ticker(time.Millisecond, func(now sim.Time) {
		if got == total && done == 0 {
			done = now
		}
	})
	defer stopProbe()
	if err := r.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	if !dropped {
		t.Fatal("loss filter never matched")
	}
	if c.Timeouts() != 0 {
		t.Fatalf("fast retransmit should avoid timeouts, got %d", c.Timeouts())
	}
	if c.Retransmits() != 1 {
		t.Fatalf("retransmits = %d, want 1", c.Retransmits())
	}
	// Recovery well under one RTO.
	if done.Sub(start) > 100*time.Millisecond {
		t.Fatalf("single loss took %v to recover", done.Sub(start))
	}
}

func TestTCPTimeoutOnBlackhole(t *testing.T) {
	r := newRig(t)
	const total = 10 * MSS
	var got int64
	var gotAt sim.Time
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(now sim.Time, n int64) { got, gotAt = n, now })
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	// Establish first; cut b's access link at 5 ms for 50 ms — shorter
	// than the 60 ms detection delay, so the data plane never reroutes: a
	// pure blackhole. Send the data at 10 ms, into the hole.
	r.sim.At(5*sim.Millisecond, func(sim.Time) { r.nw.FailLink(r.link) })
	r.sim.At(10*sim.Millisecond, func(sim.Time) { c.Send(total) })
	r.sim.At(55*sim.Millisecond, func(sim.Time) { r.nw.RestoreLink(r.link) })
	if err := r.sim.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	if c.Timeouts() == 0 {
		t.Fatal("expected an RTO")
	}
	// Recovery is RTO-quantized: the data sent at 10 ms is retransmitted
	// at ≈ 10 ms + 200 ms, after the 55 ms restore.
	if gotAt < 200*sim.Millisecond || gotAt > 300*sim.Millisecond {
		t.Fatalf("completed at %v, want ≈ 210 ms (RTO-delayed)", gotAt)
	}
}

func TestTCPRTOExponentialBackoff(t *testing.T) {
	r := newRig(t)
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	var gotAt sim.Time
	c.OnData(func(sim.Time, int64) {})
	// Establish, then blackhole from 10 ms to 1 s. The data written at
	// 11 ms is (re)sent at ≈ 11, 211, 611, 1411 ms (RTO 200 → 400 →
	// 800 ms): only the 1411 ms copy lands after the restore.
	r.sim.At(10*sim.Millisecond, func(sim.Time) { r.nw.FailLink(r.link) })
	r.sim.At(11*sim.Millisecond, func(sim.Time) { c.Send(MSS) })
	r.sim.At(sim.Second, func(sim.Time) { r.nw.RestoreLink(r.link) })
	stop := r.sim.Ticker(time.Millisecond, func(now sim.Time) {
		if got == MSS && gotAt == 0 {
			gotAt = now
		}
	})
	defer stop()
	if err := r.sim.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != MSS {
		t.Fatalf("received %d", got)
	}
	if c.Timeouts() < 3 {
		t.Fatalf("timeouts = %d, want ≥ 3 (200+400+800 backoff)", c.Timeouts())
	}
	// Delivery is quantized to the backed-off RTO schedule (≈ 1.41 s).
	if gotAt < 1300*sim.Millisecond || gotAt > 1600*sim.Millisecond {
		t.Fatalf("delivered at %v, want ≈ 1.41 s", gotAt)
	}
}

func TestTCPSynLossRecovers(t *testing.T) {
	r := newRig(t)
	dropped := 0
	r.nw.SetLossFilter(func(_ sim.Time, at topo.NodeID, _ int, pkt *network.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && seg.SYN && !seg.ACK && dropped == 0 {
			dropped++
			return true
		}
		return false
	})
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	var establishedAt sim.Time
	c.OnEstablished(func(now sim.Time) { establishedAt = now })
	if err := r.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateEstablished {
		t.Fatal("never established")
	}
	// SYN retransmitted after InitRTO.
	if establishedAt < 200*sim.Millisecond || establishedAt > 250*sim.Millisecond {
		t.Fatalf("established at %v, want ≈ 200 ms", establishedAt)
	}
}

func TestTCPRequestResponse(t *testing.T) {
	r := newRig(t)
	const reqSize, respSize = 100, 2000
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) {
			if n >= reqSize {
				c.Send(respSize)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	c.OnData(func(now sim.Time, n int64) {
		if n >= respSize {
			doneAt = now
		}
	})
	c.OnEstablished(func(sim.Time) { c.Send(reqSize) })
	if err := r.sim.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt == 0 {
		t.Fatal("response never completed")
	}
	if doneAt > 2*sim.Millisecond {
		t.Fatalf("request-response took %v on a LAN", doneAt)
	}
}

func TestTCPSlowStartOvershootOverflowsQueue(t *testing.T) {
	// With the receive-window cap lifted, an unpaced 400 KB burst
	// overshoots the queue during slow start and must recover by
	// retransmission. The default 128 KB window prevents this (see
	// TestTCPWindowCapPreventsOvershoot).
	r := newRig(t)
	const total = 400 * 1024
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.DialConfig(r.b.Addr(), 80, TCPConfig{MaxWindowBytes: 64 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(total) })
	if err := r.sim.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	if c.Retransmits() == 0 {
		t.Fatal("expected overshoot losses and retransmissions")
	}
}

func TestTCPWindowCapPreventsOvershoot(t *testing.T) {
	// Same 400 KB burst with the default 128 KB window: it fits the
	// 192 KB queue, so the transfer is loss-free.
	r := newRig(t)
	const total = 400 * 1024
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(total) })
	if err := r.sim.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	if c.Retransmits() != 0 || c.Timeouts() != 0 {
		t.Fatalf("capped window still lost packets: %d rtx / %d timeouts",
			c.Retransmits(), c.Timeouts())
	}
}

func TestTCPOutOfOrderBuffering(t *testing.T) {
	r := newRig(t)
	const total = 20 * MSS
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	dropped := false
	r.nw.SetLossFilter(func(_ sim.Time, at topo.NodeID, _ int, pkt *network.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if !ok || dropped || at != r.a.Host() {
			return false
		}
		if seg.Len > 0 && seg.Seq == 0 {
			dropped = true
			return true
		}
		return false
	})
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(total) })
	if err := r.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	// The hole fill must not force re-sending buffered segments: exactly
	// one retransmission.
	if c.Retransmits() != 1 {
		t.Fatalf("retransmits = %d, want 1 (OOO buffer broken)", c.Retransmits())
	}
}

func TestConnCloseCancelsTimers(t *testing.T) {
	r := newRig(t)
	// Dial a host that never answers (drop SYNs): pending SYN timer must
	// die with Close so the simulation drains.
	r.nw.SetLossFilter(func(_ sim.Time, _ topo.NodeID, _ int, pkt *network.Packet) bool {
		_, ok := pkt.Payload.(*Segment)
		return ok
	})
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	r.sim.At(300*sim.Millisecond, func(sim.Time) { c.Close() })
	if err := r.sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateClosed {
		t.Fatal("not closed")
	}
	if r.sim.Now() > 2*sim.Second {
		t.Fatalf("timers kept running until %v", r.sim.Now())
	}
}

func TestDialDuplicateTupleRejected(t *testing.T) {
	r := newRig(t)
	c1, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	// Force the same ephemeral port by manipulating the counter back.
	r.a.nextEphemeral--
	if _, err := r.a.Dial(r.b.Addr(), 80); err == nil {
		t.Fatal("duplicate four-tuple accepted")
	}
	c1.Close()
}

func TestStackRejectsNonHost(t *testing.T) {
	r := newRig(t)
	tor := r.nw.Topology().FindNode("tor")
	if _, err := NewStack(r.nw, tor.ID); err == nil {
		t.Fatal("stack on a switch accepted")
	}
}

func TestListenDuplicateRejected(t *testing.T) {
	r := newRig(t)
	if err := r.b.Listen(80, func(sim.Time, *Conn) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.b.Listen(80, func(sim.Time, *Conn) {}); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}
