package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkScheduleAndRun measures raw event-queue throughput with a
// self-rescheduling workload resembling packet forwarding.
func BenchmarkScheduleAndRun(b *testing.B) {
	s := New(1)
	remaining := b.N
	var tick Event
	tick = func(now Time) {
		if remaining <= 0 {
			return
		}
		remaining--
		s.After(time.Microsecond, tick)
	}
	s.After(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFanOut measures bursty scheduling: many events at mixed
// times, then a drain (the pattern of a failure storm).
func BenchmarkScheduleFanOut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(int64(i + 1))
		for j := 0; j < 1024; j++ {
			s.After(time.Duration(s.Rand().Intn(1000))*time.Microsecond, func(Time) {})
		}
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancel measures timer churn (TCP's per-ack retransmit-timer
// restart pattern).
func BenchmarkCancel(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := s.After(time.Second, func(Time) {})
		s.Cancel(h)
	}
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// churnShape is the queue pa_churn_n8 keeps (DESIGN.md §9 "Event core"):
// packets between hops near the head, a hundred timers far out, and one
// incast-congested link direction with 80 arrivals in flight.
type churnShape struct {
	s      *Simulator
	rng    *rand.Rand
	left   int  // events to run before stopping
	fifo   bool // hold queued arrivals outside the queue, as network does
	timers [100]churnTimer
	// The congested direction: when its transmitter frees, and, in fifo
	// mode, the arrivals behind the scheduled head.
	nextFree Time
	held     [128]heldEvent
	first    int
	nHeld    int
	busy     bool
}

type churnTimer struct {
	c *churnShape
	h Handle
}

// count runs first in every event and stops the run after left of them.
func (c *churnShape) count() {
	if c.left--; c.left == 0 {
		c.s.Stop()
	}
}

// farDelay is a timer's: a link fault, a held SPF timer or an RTO, 30 ms to
// 10 s out.
func (c *churnShape) farDelay() time.Duration {
	return 30*time.Millisecond + time.Duration(c.rng.Int63n(int64(10*time.Second)))
}

// transmit puts one 12 µs packet on the congested direction.
func (c *churnShape) transmit() {
	if c.nextFree < c.s.now {
		c.nextFree = c.s.now
	}
	c.nextFree += 12 * Microsecond
	at := c.nextFree + 5*Microsecond
	if !c.fifo || !c.busy {
		c.busy = true
		c.s.AtArg(at, churnArrive, c)
		return
	}
	c.held[(c.first+c.nHeld)%len(c.held)] = heldEvent{at, c.s.ReserveSeq()}
	c.nHeld++
}

// churnArrive is an arrival on the congested direction; the sender keeps
// the direction full by sending one more packet.
func churnArrive(now Time, arg any) {
	c := arg.(*churnShape)
	c.count()
	if c.fifo {
		if c.nHeld == 0 {
			c.busy = false
		} else {
			nx := c.held[c.first]
			c.first = (c.first + 1) % len(c.held)
			c.nHeld--
			c.s.AtArgSeq(nx.at, nx.seq, churnArrive, c)
		}
	}
	c.transmit()
}

// churnHop is a packet between hops, 1 to 20 µs from the next; one in eight
// restarts a timer (an RTO re-armed by an ACK).
func churnHop(now Time, arg any) {
	c := arg.(*churnShape)
	c.count()
	if c.rng.Intn(8) == 0 {
		t := &c.timers[c.rng.Intn(len(c.timers))]
		c.s.Cancel(t.h)
		t.h = c.s.AfterArg(c.farDelay(), churnFire, t)
	}
	c.s.AfterArg(time.Duration(1+c.rng.Intn(20))*time.Microsecond, churnHop, c)
}

// churnFire is a timer expiring; it re-arms itself.
func churnFire(now Time, arg any) {
	t := arg.(*churnTimer)
	t.c.count()
	t.h = t.c.s.AfterArg(t.c.farDelay(), churnFire, t)
}

// BenchmarkRunChurnShape times one event (ns/op) on a queue of the shape
// pa_churn_n8 keeps: about 10 near events, 100 far timers of which one is
// restarted every eight hops, and one link direction with 80 arrivals in
// flight. "scheduled" makes every arrival an event (the heap then holds
// about 190); "fifo" schedules only the direction's head and holds the rest
// under reserved sequence numbers, as internal/network does, so the heaps
// hold about 110, mostly far timers. Both run the same events in the same
// order.
func BenchmarkRunChurnShape(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		name := "scheduled"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			c := &churnShape{s: New(1), rng: rand.New(rand.NewSource(1)), left: b.N, fifo: fifo}
			for i := range c.timers {
				c.timers[i].c = c
				c.timers[i].h = c.s.AfterArg(c.farDelay(), churnFire, &c.timers[i])
			}
			for i := 0; i < 10; i++ {
				c.s.AfterArg(time.Duration(1+i)*time.Microsecond, churnHop, c)
			}
			for i := 0; i < 80; i++ {
				c.transmit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.s.RunUntilIdle(); err != ErrStopped {
				b.Fatalf("run ended with %v before %d events", err, b.N)
			}
			b.StopTimer()
			b.ReportMetric(float64(c.s.PeakPending()), "peak-pending")
		})
	}
}
