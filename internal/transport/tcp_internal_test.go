package transport

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestUpdateRTTFollowsRFC6298(t *testing.T) {
	c := &Conn{cfg: DefaultTCPConfig()}
	c.updateRTT(100 * time.Millisecond)
	if c.srtt != 100*time.Millisecond || c.rttvar != 50*time.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", c.srtt, c.rttvar)
	}
	// Second identical sample shrinks the variance.
	c.updateRTT(100 * time.Millisecond)
	if c.srtt != 100*time.Millisecond {
		t.Fatalf("srtt drifted: %v", c.srtt)
	}
	if c.rttvar >= 50*time.Millisecond {
		t.Fatalf("rttvar did not shrink: %v", c.rttvar)
	}
	// A spike pulls srtt up by 1/8 of the difference.
	c2 := &Conn{cfg: DefaultTCPConfig()}
	c2.updateRTT(80 * time.Millisecond)
	c2.updateRTT(160 * time.Millisecond)
	if c2.srtt != 90*time.Millisecond {
		t.Fatalf("srtt after spike = %v, want 90ms", c2.srtt)
	}
}

func TestComputedRTOBounds(t *testing.T) {
	c := &Conn{cfg: DefaultTCPConfig()}
	// No estimate yet: InitRTO.
	if got := c.computedRTO(); got != c.cfg.InitRTO {
		t.Fatalf("rto = %v, want init", got)
	}
	// Tiny RTT: floored at MinRTO.
	c.updateRTT(200 * time.Microsecond)
	if got := c.computedRTO(); got != c.cfg.MinRTO {
		t.Fatalf("rto = %v, want floor %v", got, c.cfg.MinRTO)
	}
	// Huge RTT: capped at MaxRTO.
	c2 := &Conn{cfg: TCPConfig{MaxRTO: time.Second}.withDefaults()}
	c2.updateRTT(10 * time.Second)
	if got := c2.computedRTO(); got != time.Second {
		t.Fatalf("rto = %v, want cap 1s", got)
	}
}

func TestMaxWindowRespected(t *testing.T) {
	r := newRig(t)
	const window = 16 * 1024
	var maxInflight int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.DialConfig(r.b.Addr(), 80, TCPConfig{MaxWindowBytes: window})
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(400 * 1024) })
	stop := r.sim.Ticker(10*time.Microsecond, func(sim.Time) {
		if fl := c.sndNxt - c.sndUna; fl > maxInflight {
			maxInflight = fl
		}
	})
	defer stop()
	if err := r.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if c.Acked() != 400*1024 {
		t.Fatalf("acked = %d", c.Acked())
	}
	if maxInflight > window {
		t.Fatalf("inflight %d exceeded window %d", maxInflight, window)
	}
	if maxInflight < window/2 {
		t.Fatalf("inflight %d never approached window; pacing bug?", maxInflight)
	}
}

func TestDupAckThresholdIsThree(t *testing.T) {
	r := newRig(t)
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	// Drop the first data segment; only TWO further segments follow — not
	// enough dupacks for fast retransmit, so recovery must be an RTO.
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
	c.OnEstablished(func(sim.Time) { c.Send(3 * MSS) })
	if err := r.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 3*MSS {
		t.Fatalf("received %d", got)
	}
	if c.Timeouts() != 1 {
		t.Fatalf("timeouts = %d, want 1 (2 dupacks must not trigger fast rtx)", c.Timeouts())
	}
}

// TestPacedFlowSendsNoSillySegments drives the recovery experiment's flow
// shape (one MSS every 100 µs) through a 50 ms outage: the RTO sets
// ssthresh, and the backlog then drains window-limited in congestion
// avoidance, where every ACK grows cwnd by a few bytes. No data segment
// the window cut below MSS may leave while earlier bytes are unacknowledged.
func TestPacedFlowSendsNoSillySegments(t *testing.T) {
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
	sent := 0
	c.OnEstablished(func(sim.Time) {
		r.sim.Ticker(100*time.Microsecond, func(now sim.Time) {
			if now < 300*sim.Millisecond {
				c.Send(MSS)
				sent += MSS
			}
		})
	})
	full, silly := 0, 0
	r.nw.SetLossFilter(func(now sim.Time, at topo.NodeID, _ int, pkt *network.Packet) bool {
		if at != r.a.Host() {
			return false
		}
		if seg, ok := pkt.Payload.(*Segment); ok && seg.Len > 0 {
			switch {
			case seg.Len == MSS:
				full++
			case seg.Seq > c.Acked():
				silly++
			}
		}
		return now >= 20*sim.Millisecond && now < 70*sim.Millisecond
	})
	if err := r.sim.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if c.Timeouts() == 0 || c.cwnd < c.ssthresh {
		t.Fatalf("flow never reached congestion avoidance: %d timeouts, cwnd %d, ssthresh %d",
			c.Timeouts(), c.cwnd, c.ssthresh)
	}
	if got != int64(sent) {
		t.Fatalf("received %d of %d", got, sent)
	}
	if silly != 0 {
		t.Errorf("%d sub-MSS data segments sent with data in flight (%d full)", silly, full)
	}
}

// TestWindowBelowMSSStillCompletes: with nothing in flight a window smaller
// than MSS still sends, so the transfer cannot stall waiting for room that
// never comes.
func TestWindowBelowMSSStillCompletes(t *testing.T) {
	r := newRig(t)
	const total = 20 * MSS
	var got int64
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(_ sim.Time, n int64) { got = n })
	}); err != nil {
		t.Fatal(err)
	}
	c, err := r.a.DialConfig(r.b.Addr(), 80, TCPConfig{MaxWindowBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func(sim.Time) { c.Send(total) })
	if err := r.sim.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != total || c.Acked() != total {
		t.Fatalf("received %d, acked %d of %d", got, c.Acked(), total)
	}
	if c.Timeouts() != 0 {
		t.Fatalf("%d timeouts: the flow stalled", c.Timeouts())
	}
}

// TestShortSendGoesOutAtOnce: a segment the application made short is not
// held back, on an idle connection or with data in flight.
func TestShortSendGoesOutAtOnce(t *testing.T) {
	r, c := bulkConn(t)
	var lens []int
	var at []sim.Time
	r.nw.SetLossFilter(func(now sim.Time, node topo.NodeID, _ int, pkt *network.Packet) bool {
		if seg, ok := pkt.Payload.(*Segment); ok && node == r.a.Host() && seg.Len > 0 {
			lens = append(lens, seg.Len)
			at = append(at, now)
		}
		return false
	})
	now := r.sim.Now()
	c.Send(100)
	c.Send(100)
	if len(lens) != 2 || lens[0] != 100 || lens[1] != 100 || at[0] != now || at[1] != now {
		t.Fatalf("sent %v at %v, want two 100-byte segments at %v", lens, at, now)
	}
	if err := r.sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if want := int64(256*MSS + 200); c.Acked() != want {
		t.Fatalf("acked %d, want %d", c.Acked(), want)
	}
}
