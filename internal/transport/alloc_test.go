package transport

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// bulkConn is a warmed connection from rig host a to b: the handshake is
// done and one transfer has filled the segment pools, the simulator heap
// and the network's packet and event free lists.
func bulkConn(tb testing.TB) (*rig, *Conn) {
	r := newRig(tb)
	if err := r.b.Listen(80, func(_ sim.Time, c *Conn) {
		c.OnData(func(sim.Time, int64) {})
	}); err != nil {
		tb.Fatal(err)
	}
	c, err := r.a.Dial(r.b.Addr(), 80)
	if err != nil {
		tb.Fatal(err)
	}
	transfer(tb, r, c, 256)
	return r, c
}

// transfer sends n full segments on c and runs the simulator until every
// byte is acknowledged and the retransmission timer is cancelled. It runs
// to a horizon, a second plus a millisecond per segment (a segment takes
// 12 µs on the rig's 1 Gb/s links), so a connection that never gets through,
// and would retransmit forever, fails the test instead of hanging it.
func transfer(tb testing.TB, r *rig, c *Conn, n int) {
	want := c.Acked() + int64(n)*MSS
	c.Send(n * MSS)
	horizon := r.sim.Now().Add(time.Second + time.Duration(n)*time.Millisecond)
	if err := r.sim.Run(horizon); err != nil {
		tb.Fatal(err)
	}
	if c.Acked() != want || r.sim.Pending() != 0 {
		tb.Fatalf("by %v: acked %d, want %d; %d events still pending", horizon, c.Acked(), want, r.sim.Pending())
	}
}

// probeSink is a warmed UDP probe from rig host a to a sink on b that has
// room for `room` more arrivals.
func probeSink(tb testing.TB, interval time.Duration, room int) (*rig, *UDPSink) {
	r := newRig(tb)
	sink, err := r.b.NewUDPSink(9)
	if err != nil {
		tb.Fatal(err)
	}
	r.a.StartUDPSource(r.b.Addr(), 9, 1448, interval)
	if err := r.sim.Run(r.sim.Now().Add(100 * interval)); err != nil {
		tb.Fatal(err)
	}
	sink.Reserve(len(sink.Arrivals) + room)
	return r, sink
}

// TestTCPTransferAllocBudget holds the steady-state TCP send and receive
// paths at zero allocations: every data segment and every ACK comes from a
// stack's free list, and each ACK that leaves data outstanding re-arms the
// RTO timer through the static connTimeout event.
func TestTCPTransferAllocBudget(t *testing.T) {
	r, c := bulkConn(t)
	const perRun = 64
	sent := r.nw.Stats().Sent
	allocs := testing.AllocsPerRun(20, func() { transfer(t, r, c, perRun) })
	pkts := r.nw.Stats().Sent - sent
	if pkts < 2*21*perRun {
		t.Fatalf("%d packets for %d segments: data or ACKs missing", pkts, 21*perRun)
	}
	if c.Retransmits() != 0 || c.Timeouts() != 0 {
		t.Fatalf("transfer not clean: %d retransmits, %d timeouts", c.Retransmits(), c.Timeouts())
	}
	if allocs != 0 {
		t.Errorf("a %d-segment transfer allocates %.1f times, want 0", perRun, allocs)
	}
}

// TestUDPProbeAllocBudget holds a paced datagram, from the source's tick to
// the sink's record, at zero allocations once the sink is reserved.
func TestUDPProbeAllocBudget(t *testing.T) {
	const interval = 100 * time.Microsecond
	const perRun = 100
	r, sink := probeSink(t, interval, 21*perRun)
	before, room := len(sink.Arrivals), cap(sink.Arrivals)
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.sim.Run(r.sim.Now().Add(perRun * interval)); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(sink.Arrivals) - before; got != 21*perRun {
		t.Fatalf("%d arrivals, want %d", got, 21*perRun)
	}
	// AllocsPerRun averages, so a sink doubling a few times would read 0.
	if cap(sink.Arrivals) != room {
		t.Errorf("reserved sink grew from %d to %d", room, cap(sink.Arrivals))
	}
	if allocs != 0 {
		t.Errorf("%d datagrams allocate %.1f times, want 0", perRun, allocs)
	}
}

// BenchmarkTCPTransfer: one op is one full data segment and its ACK on a
// warmed connection.
func BenchmarkTCPTransfer(b *testing.B) {
	r, c := bulkConn(b)
	b.ReportAllocs()
	b.ResetTimer()
	transfer(b, r, c, b.N)
}

// BenchmarkUDPProbe: one op is one paced datagram into a reserved sink.
func BenchmarkUDPProbe(b *testing.B) {
	const interval = 100 * time.Microsecond
	r, sink := probeSink(b, interval, b.N)
	before := len(sink.Arrivals)
	b.ReportAllocs()
	b.ResetTimer()
	if err := r.sim.Run(r.sim.Now().Add(time.Duration(b.N) * interval)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := len(sink.Arrivals) - before; got != b.N {
		b.Fatalf("%d arrivals, want %d", got, b.N)
	}
}
