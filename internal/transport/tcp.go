package transport

import (
	"fmt"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
)

// Segment is a TCP segment. Payload bytes are modeled by length only.
// Segments come from the sending stack's free list and go back to it once
// the receiving Stack.receive returns; a dropped one is left to the
// collector.
type Segment struct {
	SYN, ACK bool
	Seq      int64 // first payload byte offset
	AckNo    int64 // cumulative ack
	Len      int   // payload length

	owner *Stack // the sending stack, whose free list it returns to
}

// ConnState tracks the connection lifecycle.
type ConnState int

// Connection states.
const (
	StateSynSent ConnState = iota + 1
	StateEstablished
	StateClosed
)

// TCPConfig carries the transport constants the paper's analysis uses.
type TCPConfig struct {
	// InitRTO is the retransmission timeout before an RTT estimate exists
	// (the paper's 200 ms initial RTO, §III).
	InitRTO time.Duration
	// MinRTO floors the computed RTO (Linux's 200 ms).
	MinRTO time.Duration
	// MaxRTO caps exponential backoff.
	MaxRTO time.Duration
	// InitCwndSegments is the initial congestion window (IW10).
	InitCwndSegments int
	// MaxWindowBytes caps the usable window, modeling the peer's receive
	// window / socket buffers (≈ 128 KB on the paper-era Linux defaults).
	// Without it, an app-limited flow's slow start never exits and a
	// post-outage backlog is blasted out in pathological bursts.
	MaxWindowBytes int
}

// DefaultTCPConfig returns Linux-like defaults circa the paper.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		InitRTO:          200 * time.Millisecond,
		MinRTO:           200 * time.Millisecond,
		MaxRTO:           60 * time.Second,
		InitCwndSegments: 10,
		MaxWindowBytes:   128 * 1024,
	}
}

func (c TCPConfig) withDefaults() TCPConfig {
	d := DefaultTCPConfig()
	if c.InitRTO == 0 {
		c.InitRTO = d.InitRTO
	}
	if c.MinRTO == 0 {
		c.MinRTO = d.MinRTO
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = d.MaxRTO
	}
	if c.InitCwndSegments == 0 {
		c.InitCwndSegments = d.InitCwndSegments
	}
	if c.MaxWindowBytes == 0 {
		c.MaxWindowBytes = d.MaxWindowBytes
	}
	return c
}

// Conn is a bidirectional TCP connection endpoint.
type Conn struct {
	stack      *Stack
	cfg        TCPConfig
	remote     netaddr.Addr
	remotePort uint16
	localPort  uint16
	state      ConnState
	server     bool

	// Sender. maxSent is the transmission high-water mark; after an RTO
	// sndNxt rolls back to sndUna and bytes below maxSent re-sent count as
	// retransmissions.
	appEnqueued int64
	sndUna      int64
	sndNxt      int64
	maxSent     int64
	cwnd        int64
	ssthresh    int64
	dupAcks     int

	// RTO machinery.
	rto       time.Duration
	srtt      time.Duration
	rttvar    time.Duration
	srttValid bool
	rtxTimer  sim.Handle

	// Single in-flight RTT sample (Karn's algorithm).
	sampleActive bool
	sampleEnd    int64
	sampleAt     sim.Time

	// Receiver. ooo buffers out-of-order segments (seq → furthest byte)
	// so a retransmission filling the hole acks everything at once, as a
	// real (even SACK-less) receiver does.
	rcvNxt int64
	ooo    map[int64]int64

	// Callbacks.
	onData        func(now sim.Time, total int64)
	onEstablished func(now sim.Time)

	// Stats.
	retransmits int
	timeouts    int
	establishAt sim.Time
}

// Dial opens a client connection and sends the SYN immediately.
func (st *Stack) Dial(dst netaddr.Addr, dstPort uint16) (*Conn, error) {
	c := &Conn{
		stack:      st,
		cfg:        DefaultTCPConfig(),
		remote:     dst,
		remotePort: dstPort,
		localPort:  st.ephemeral(),
		state:      StateSynSent,
	}
	return st.startConn(c)
}

// DialConfig is Dial with explicit TCP constants.
func (st *Stack) DialConfig(dst netaddr.Addr, dstPort uint16, cfg TCPConfig) (*Conn, error) {
	c := &Conn{
		stack:      st,
		cfg:        cfg.withDefaults(),
		remote:     dst,
		remotePort: dstPort,
		localPort:  st.ephemeral(),
		state:      StateSynSent,
	}
	return st.startConn(c)
}

func (st *Stack) startConn(c *Conn) (*Conn, error) {
	c.cwnd = int64(c.cfg.InitCwndSegments) * MSS
	c.ssthresh = 1 << 40
	c.rto = c.cfg.InitRTO
	key := fourTuple{remote: c.remote, remotePort: c.remotePort, localPort: c.localPort}
	if _, dup := st.conns[key]; dup {
		return nil, fmt.Errorf("transport: connection %v exists", key)
	}
	st.conns[key] = c
	c.sendSegment(Segment{SYN: true})
	c.armTimer()
	return c, nil
}

// Listen registers an accept callback for a TCP port.
func (st *Stack) Listen(port uint16, accept AcceptFunc) error {
	if _, dup := st.listeners[port]; dup {
		return fmt.Errorf("transport: TCP port %d already listening", port)
	}
	st.listeners[port] = accept
	return nil
}

// receiveTCP demuxes a TCP segment to its connection, creating server-side
// connections on SYN.
func (st *Stack) receiveTCP(now sim.Time, pkt *network.Packet, seg *Segment) {
	key := fourTuple{remote: pkt.Flow.Src, remotePort: pkt.Flow.SrcPort, localPort: pkt.Flow.DstPort}
	c := st.conns[key]
	if c == nil {
		accept := st.listeners[pkt.Flow.DstPort]
		if accept == nil || !seg.SYN || seg.ACK {
			return
		}
		c = &Conn{
			stack:       st,
			cfg:         DefaultTCPConfig(),
			remote:      pkt.Flow.Src,
			remotePort:  pkt.Flow.SrcPort,
			localPort:   pkt.Flow.DstPort,
			state:       StateEstablished,
			server:      true,
			establishAt: now,
		}
		c.cwnd = int64(c.cfg.InitCwndSegments) * MSS
		c.ssthresh = 1 << 40
		c.rto = c.cfg.InitRTO
		st.conns[key] = c
		accept(now, c)
		c.sendSegment(Segment{SYN: true, ACK: true})
		return
	}
	c.handleSegment(now, seg)
}

// OnData registers the receive-progress callback (total bytes delivered in
// order so far).
func (c *Conn) OnData(fn func(now sim.Time, total int64)) { c.onData = fn }

// OnEstablished registers the handshake-completion callback (client side).
func (c *Conn) OnEstablished(fn func(now sim.Time)) { c.onEstablished = fn }

// Send enqueues n more bytes of application data.
func (c *Conn) Send(n int) {
	if c.state == StateClosed || n <= 0 {
		return
	}
	c.appEnqueued += int64(n)
	c.trySend()
}

// Close tears the endpoint down and cancels its timers. (The model skips
// FIN: experiments measure byte delivery, not orderly shutdown.)
func (c *Conn) Close() {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.stack.s.Cancel(c.rtxTimer)
	delete(c.stack.conns, fourTuple{remote: c.remote, remotePort: c.remotePort, localPort: c.localPort})
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// FlowKey returns the five-tuple this connection's segments carry, e.g. for
// tracing the ECMP path the connection takes.
func (c *Conn) FlowKey() fib.FlowKey {
	return fib.FlowKey{
		Src: c.stack.addr, Dst: c.remote, Proto: network.ProtoTCP,
		SrcPort: c.localPort, DstPort: c.remotePort,
	}
}

// Acked returns the total bytes the peer has acknowledged.
func (c *Conn) Acked() int64 { return c.sndUna }

// Retransmits returns the count of retransmitted segments.
func (c *Conn) Retransmits() int { return c.retransmits }

// Timeouts returns the count of RTO expirations.
func (c *Conn) Timeouts() int { return c.timeouts }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// sendSegment transmits s on the wire in a pooled segment.
func (c *Conn) sendSegment(s Segment) {
	seg := c.stack.newSegment(s)
	size := seg.Len + HeaderBytes
	pkt := c.stack.nw.NewPacket()
	pkt.Flow = fib.FlowKey{
		Src: c.stack.addr, Dst: c.remote, Proto: network.ProtoTCP,
		SrcPort: c.localPort, DstPort: c.remotePort,
	}
	pkt.Size = size
	pkt.Payload = seg
	c.stack.nw.SendFromHost(c.stack.host, pkt)
}

// trySend transmits as much enqueued data as the window allows, avoiding
// silly-window sends on the sender side (RFC 1122 §4.2.3.4): while data is
// in flight, a segment the window would cut short waits until an ACK (or
// the RTO) makes room for all of it. A segment the application made short
// still goes out at once, and with nothing in flight even a sub-MSS window
// sends, so a window smaller than MSS cannot stall the flow.
func (c *Conn) trySend() {
	if c.state != StateEstablished {
		return
	}
	wnd := c.cwnd
	if maxW := int64(c.cfg.MaxWindowBytes); wnd > maxW {
		wnd = maxW
	}
	for c.sndNxt < c.appEnqueued && c.sndNxt-c.sndUna < wnd {
		n := c.appEnqueued - c.sndNxt
		if n > MSS {
			n = MSS
		}
		if room := wnd - (c.sndNxt - c.sndUna); n > room {
			if c.sndNxt > c.sndUna {
				return
			}
			n = room
		}
		c.sendSegment(Segment{ACK: true, Seq: c.sndNxt, AckNo: c.rcvNxt, Len: int(n)})
		if c.sndNxt < c.maxSent {
			c.retransmits++
		} else if !c.sampleActive {
			// Karn: only fresh data provides RTT samples.
			c.sampleActive = true
			c.sampleEnd = c.sndNxt + n
			c.sampleAt = c.stack.s.Now()
		}
		c.sndNxt += n
		if c.sndNxt > c.maxSent {
			c.maxSent = c.sndNxt
		}
		// RFC 6298 5.1: start the timer only if it is not already
		// running — re-arming per send would let a paced application
		// postpone the RTO forever.
		if !c.rtxTimer.Active() {
			c.armTimer()
		}
	}
}

// armTimer (re)starts the retransmission timer.
func (c *Conn) armTimer() {
	c.stack.s.Cancel(c.rtxTimer)
	c.rtxTimer = c.stack.s.AfterArg(c.rto, connTimeout, c)
}

// connTimeout is the static sim.ArgEvent every connection's RTO timer
// schedules, so re-arming allocates no method-value closure.
func connTimeout(now sim.Time, arg any) {
	if c, ok := arg.(*Conn); ok {
		c.onTimeout(now)
	}
}

// onTimeout handles RTO expiry.
func (c *Conn) onTimeout(now sim.Time) {
	if c.state == StateClosed {
		return
	}
	if c.state == StateSynSent {
		c.timeouts++
		c.rto = minDur(c.rto*2, c.cfg.MaxRTO)
		c.sendSegment(Segment{SYN: true})
		c.armTimer()
		return
	}
	if c.sndUna >= c.sndNxt {
		return // nothing outstanding
	}
	c.timeouts++
	inflight := c.sndNxt - c.sndUna
	c.ssthresh = maxI64(inflight/2, 2*MSS)
	c.cwnd = MSS
	c.rto = minDur(c.rto*2, c.cfg.MaxRTO)
	c.sampleActive = false // Karn: no sample across a retransmission
	// Go-back-N: resume from the first unacked byte; the receiver's
	// out-of-order buffer absorbs any duplicates.
	c.sndNxt = c.sndUna
	c.trySend()
	c.armTimer()
}

// retransmitUna resends the first unacknowledged segment.
func (c *Conn) retransmitUna() {
	n := c.sndNxt - c.sndUna
	if n > MSS {
		n = MSS
	}
	if n <= 0 {
		return
	}
	c.retransmits++
	c.sendSegment(Segment{ACK: true, Seq: c.sndUna, AckNo: c.rcvNxt, Len: int(n)})
}

// handleSegment processes an arriving segment on an existing connection.
func (c *Conn) handleSegment(now sim.Time, seg *Segment) {
	if c.state == StateClosed {
		return
	}
	// Handshake.
	if seg.SYN && seg.ACK {
		if c.state == StateSynSent {
			c.state = StateEstablished
			c.establishAt = now
			c.rto = c.computedRTO()
			// Kill the SYN timer before any callback can send data, or
			// that data would mistake it for its own retransmit timer.
			c.stack.s.Cancel(c.rtxTimer)
			c.sendSegment(Segment{ACK: true, AckNo: 0})
			if c.onEstablished != nil {
				c.onEstablished(now)
			}
			c.trySend()
		} else {
			// Duplicate SYNACK: re-ack.
			c.sendSegment(Segment{ACK: true, AckNo: c.rcvNxt})
		}
		return
	}
	if seg.SYN {
		// Duplicate SYN on a server conn (our SYNACK was lost): resend.
		if c.server {
			c.sendSegment(Segment{SYN: true, ACK: true})
		}
		return
	}

	// Data.
	if seg.Len > 0 {
		end := seg.Seq + int64(seg.Len)
		switch {
		case seg.Seq <= c.rcvNxt && end > c.rcvNxt:
			c.rcvNxt = end
			// Drain any buffered segments now contiguous.
			for c.ooo != nil {
				drained := false
				// Fixed-point drain: it re-scans until no segment extends
				// rcvNxt, so map order cannot change the result.
				for s, e := range c.ooo {
					if s <= c.rcvNxt {
						if e > c.rcvNxt {
							c.rcvNxt = e
						}
						delete(c.ooo, s)
						drained = true
					}
				}
				if !drained {
					break
				}
			}
			if c.onData != nil {
				c.onData(now, c.rcvNxt)
			}
		case seg.Seq > c.rcvNxt:
			if c.ooo == nil {
				c.ooo = make(map[int64]int64)
			}
			if prev, ok := c.ooo[seg.Seq]; !ok || end > prev {
				c.ooo[seg.Seq] = end
			}
		}
		// Cumulative (possibly duplicate) ack either way.
		c.sendSegment(Segment{ACK: true, AckNo: c.rcvNxt})
	}

	// Ack processing.
	if !seg.ACK {
		return
	}
	switch {
	case seg.AckNo > c.sndUna:
		acked := seg.AckNo - c.sndUna
		c.sndUna = seg.AckNo
		c.dupAcks = 0
		if c.sampleActive && seg.AckNo >= c.sampleEnd {
			c.updateRTT(now.Sub(c.sampleAt))
			c.sampleActive = false
		}
		c.rto = c.computedRTO()
		// Congestion window growth. Slow start grows by at most one MSS
		// per ACK (RFC 5681) — a cumulative ACK jumping over buffered
		// out-of-order data must not inflate cwnd by the jump.
		if c.cwnd < c.ssthresh {
			if acked > MSS {
				acked = MSS
			}
			c.cwnd += acked
		} else {
			c.cwnd += int64(MSS) * int64(MSS) / c.cwnd // AIMD
		}
		if c.sndUna < c.sndNxt {
			c.armTimer()
		} else {
			c.stack.s.Cancel(c.rtxTimer)
		}
		c.trySend()
	case seg.AckNo == c.sndUna && seg.Len == 0 && c.sndNxt > c.sndUna:
		c.dupAcks++
		if c.dupAcks == 3 {
			inflight := c.sndNxt - c.sndUna
			c.ssthresh = maxI64(inflight/2, 2*MSS)
			c.cwnd = c.ssthresh
			c.sampleActive = false
			c.retransmitUna()
			c.armTimer()
		}
	}
}

// updateRTT applies RFC 6298 SRTT/RTTVAR smoothing.
func (c *Conn) updateRTT(rtt time.Duration) {
	if !c.srttValid {
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.srttValid = true
		return
	}
	d := c.srtt - rtt
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// computedRTO returns srtt + 4·rttvar floored at MinRTO.
func (c *Conn) computedRTO() time.Duration {
	if !c.srttValid {
		return c.cfg.InitRTO
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	return rto
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
