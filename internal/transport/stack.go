// Package transport implements the host protocol stacks the experiments
// drive: paced UDP flows with sequence numbers (the paper's connectivity
// probes) and a TCP with the loss-recovery behaviour the paper's analysis
// leans on — 200 ms initial RTO with exponential backoff, SRTT/RTTVAR
// estimation, slow start, AIMD and fast retransmit.
package transport

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// MSS is the maximum segment payload in bytes (the paper's 1448).
const MSS = 1448

// HeaderBytes is the IP+transport header overhead added to wire size.
const HeaderBytes = 40

// Datagram is a UDP payload. The sending stack carries it in the packet
// as a *Datagram from its free list and takes it back once the receiving
// Stack.receive returns (a dropped datagram is left to the collector);
// handlers get a copy.
type Datagram struct {
	Seq uint64

	owner *Stack // the sending stack, whose free list it returns to
}

// UDPHandler receives datagrams addressed to a bound port.
type UDPHandler func(now sim.Time, from netaddr.Addr, srcPort uint16, size int, dg Datagram, sentAt sim.Time)

// AcceptFunc is invoked when a listener accepts a new connection.
type AcceptFunc func(now sim.Time, c *Conn)

type fourTuple struct {
	remote     netaddr.Addr
	remotePort uint16
	localPort  uint16
}

// Stack is a host's protocol stack. Create one per participating host; it
// registers itself as the host's packet receiver.
type Stack struct {
	nw   *network.Network
	s    *sim.Simulator
	host topo.NodeID
	addr netaddr.Addr

	udpHandlers map[uint16]UDPHandler
	listeners   map[uint16]AcceptFunc
	conns       map[fourTuple]*Conn

	nextEphemeral uint16

	// Payload free lists: a segment or datagram returns here, to its
	// sender, once the receiving stack has handled it. Data and ACKs
	// flow in opposite directions, so a connection's two pools balance.
	segs sim.FreeList[Segment]
	dgs  sim.FreeList[Datagram]
}

// NewStack attaches a stack to host.
func NewStack(nw *network.Network, host topo.NodeID) (*Stack, error) {
	nd := nw.Topology().Node(host)
	if nd.Kind != topo.Host {
		return nil, fmt.Errorf("transport: %s is not a host", nd.Name)
	}
	st := &Stack{
		nw:            nw,
		s:             nw.Sim(),
		host:          host,
		addr:          nd.Addr,
		udpHandlers:   make(map[uint16]UDPHandler),
		listeners:     make(map[uint16]AcceptFunc),
		conns:         make(map[fourTuple]*Conn),
		nextEphemeral: 33000,
		segs:          sim.NewFreeList(poisonSegment),
		dgs:           sim.NewFreeList(poisonDatagram),
	}
	nw.SetHostReceiver(host, st.receive)
	return st, nil
}

// Addr returns the host address.
func (st *Stack) Addr() netaddr.Addr { return st.addr }

// Host returns the host node ID.
func (st *Stack) Host() topo.NodeID { return st.host }

// ephemeral allocates a source port.
func (st *Stack) ephemeral() uint16 {
	p := st.nextEphemeral
	st.nextEphemeral++
	if st.nextEphemeral == 0 {
		st.nextEphemeral = 33000
	}
	return p
}

// BindUDP registers a datagram handler on a local port.
func (st *Stack) BindUDP(port uint16, h UDPHandler) error {
	if _, dup := st.udpHandlers[port]; dup {
		return fmt.Errorf("transport: UDP port %d already bound", port)
	}
	st.udpHandlers[port] = h
	return nil
}

// SendUDP transmits one datagram of `size` payload bytes.
func (st *Stack) SendUDP(dst netaddr.Addr, srcPort, dstPort uint16, size int, dg Datagram) {
	dp := st.dgs.Get()
	dg.owner = st
	*dp = dg
	pkt := st.nw.NewPacket()
	pkt.Flow = fib.FlowKey{
		Src: st.addr, Dst: dst, Proto: network.ProtoUDP,
		SrcPort: srcPort, DstPort: dstPort,
	}
	pkt.Size = size + HeaderBytes
	pkt.Payload = dp
	st.nw.SendFromHost(st.host, pkt)
}

// poisonSegment and poisonDatagram mark a released payload with no owner
// and offsets, a length and a sequence number no flow can reach.
func poisonSegment(seg *Segment) { seg.owner, seg.Seq, seg.AckNo, seg.Len = nil, -1, -1, -1 }

func poisonDatagram(dg *Datagram) { dg.owner, dg.Seq = nil, math.MaxUint64 }

// receive demuxes an arriving packet. Its payload is recycled when this
// returns, so nothing below may keep the *Segment or *Datagram.
func (st *Stack) receive(now sim.Time, pkt *network.Packet) {
	switch pkt.Flow.Proto {
	case network.ProtoUDP:
		dg, ok := pkt.Payload.(*Datagram)
		if !ok {
			return
		}
		if h := st.udpHandlers[pkt.Flow.DstPort]; h != nil {
			h(now, pkt.Flow.Src, pkt.Flow.SrcPort, pkt.Size-HeaderBytes, *dg, pkt.SentAt)
		}
		dg.owner.dgs.Put(dg)
	case network.ProtoTCP:
		seg, ok := pkt.Payload.(*Segment)
		if !ok {
			return
		}
		st.receiveTCP(now, pkt, seg)
		seg.owner.segs.Put(seg)
	}
}

// UDPSource paces fixed-size datagrams at a constant interval, stamping
// sequence numbers — the paper's probe flow (1448 B every 100 µs).
type UDPSource struct {
	stack    *Stack
	dst      netaddr.Addr
	srcPort  uint16
	dstPort  uint16
	size     int
	interval time.Duration

	seq  uint64
	stop func()
}

// StartUDPSource begins pacing immediately (first datagram after one
// interval) and returns a handle to stop it.
func (st *Stack) StartUDPSource(dst netaddr.Addr, dstPort uint16, size int, interval time.Duration) *UDPSource {
	u := &UDPSource{
		stack:   st,
		dst:     dst,
		srcPort: st.ephemeral(),
		dstPort: dstPort, size: size, interval: interval,
	}
	u.stop = st.s.Ticker(interval, func(now sim.Time) {
		st.SendUDP(dst, u.srcPort, dstPort, size, Datagram{Seq: u.seq})
		u.seq++
	})
	return u
}

// Sent returns how many datagrams have been sent.
func (u *UDPSource) Sent() uint64 { return u.seq }

// FlowKey returns the five-tuple the source's datagrams carry.
func (u *UDPSource) FlowKey() fib.FlowKey {
	return fib.FlowKey{
		Src: u.stack.addr, Dst: u.dst, Proto: network.ProtoUDP,
		SrcPort: u.srcPort, DstPort: u.dstPort,
	}
}

// Stop halts the source.
func (u *UDPSource) Stop() { u.stop() }

// UDPSink records arriving probe datagrams for metrics extraction.
type UDPSink struct {
	// Arrivals, in order: sequence, send time, arrival time, payload size.
	Arrivals []UDPArrival
}

// UDPArrival is one recorded datagram.
type UDPArrival struct {
	Seq     uint64
	SentAt  sim.Time
	Arrived sim.Time
	Size    int
}

// Reserve grows the sink to hold n arrivals in all without reallocating,
// for callers that know how many datagrams their horizon can carry.
func (s *UDPSink) Reserve(n int) {
	if n > len(s.Arrivals) {
		s.Arrivals = slices.Grow(s.Arrivals, n-len(s.Arrivals))
	}
}

// NewUDPSink binds a recording sink on the port.
func (st *Stack) NewUDPSink(port uint16) (*UDPSink, error) {
	sink := &UDPSink{}
	err := st.BindUDP(port, func(now sim.Time, _ netaddr.Addr, _ uint16, size int, dg Datagram, sentAt sim.Time) {
		sink.Arrivals = append(sink.Arrivals, UDPArrival{Seq: dg.Seq, SentAt: sentAt, Arrived: now, Size: size})
	})
	if err != nil {
		return nil, err
	}
	return sink, nil
}
