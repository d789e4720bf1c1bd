// Package network is the packet-level data plane: it instantiates a
// topo.Topology as runtime switches, hosts and links, forwards packets
// through per-switch FIBs with ECMP, models link bandwidth, propagation
// delay and finite drop-tail queues, and runs the per-port failure
// detectors whose 60 ms delay the paper measures.
//
// The control plane (package ospf) subscribes to detected port state
// changes and installs routes into the same FIBs; transports (package
// transport) attach to hosts.
package network

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/detect"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the data-plane constants. Zero fields take the defaults
// the paper's emulation uses (§IV): 1 Gbps links, 5 µs propagation, 60 ms
// failure detection.
type Config struct {
	// BandwidthBps is the link rate in bits per second.
	BandwidthBps float64
	// PropDelay is the one-way link propagation delay.
	PropDelay time.Duration
	// ProcDelay is the per-switch packet processing delay.
	ProcDelay time.Duration
	// QueueBytes is the per-link-direction drop-tail queue capacity.
	QueueBytes int
	// DetectionDelay is how long a port takes to notice its link changed
	// state under the default fixed detector (the paper's BFD-like
	// detect.DefaultDelay). Ignored when Detector selects another mode.
	DetectionDelay time.Duration
	// Detector selects the failure-detection model (see package detect).
	// The zero value is the fixed detector at DetectionDelay, which
	// reproduces the historical behavior byte-identically.
	Detector detect.Spec
	// TTL is the initial packet TTL.
	TTL int
	// DisableFlowCache turns off the per-switch live-hop memo of the FIB
	// lookup (ablation; results are identical either way, only slower).
	DisableFlowCache bool
}

// DefaultConfig returns the paper's emulation constants.
func DefaultConfig() Config {
	return Config{
		BandwidthBps:   1e9,
		PropDelay:      5 * time.Microsecond,
		ProcDelay:      time.Microsecond,
		QueueBytes:     128 * 1500, // ≈ 128 full-size packets
		DetectionDelay: detect.DefaultDelay,
		TTL:            64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BandwidthBps == 0 {
		c.BandwidthBps = d.BandwidthBps
	}
	if c.PropDelay == 0 {
		c.PropDelay = d.PropDelay
	}
	if c.ProcDelay == 0 {
		c.ProcDelay = d.ProcDelay
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = d.QueueBytes
	}
	if c.DetectionDelay == 0 {
		c.DetectionDelay = d.DetectionDelay
	}
	if c.TTL == 0 {
		c.TTL = d.TTL
	}
	return c
}

// PortStateFunc is notified when a node's failure detector changes its
// belief about a local port.
type PortStateFunc func(now sim.Time, node topo.NodeID, port int, up bool)

// ReceiveFunc delivers a packet to a host.
type ReceiveFunc func(now sim.Time, pkt *Packet)

// DropFunc observes dropped packets (tests and traces).
type DropFunc func(now sim.Time, at topo.NodeID, pkt *Packet, cause DropCause)

// linkDir is one direction of a link: 0 = A→B, 1 = B→A.
type linkDir struct {
	up bool
	// nextFree is when the transmitter finishes the last accepted packet.
	nextFree sim.Time
	// tail is the last arrival in flight on this direction, nil when none
	// is. Arrivals form a FIFO threaded through netEvent.next: only the
	// head is a simulator event, and each schedules its successor.
	tail *netEvent
	// Telemetry.
	packets      uint64
	bytes        uint64
	peakBacklogB float64
}

type linkState struct {
	dirs [2]linkDir
}

// bothUp reports whether the link is healthy in both directions — the
// condition a BFD-style detector monitors (a session needs both
// directions, so losing either brings the port down at both ends).
func (ls *linkState) bothUp() bool { return ls.dirs[0].up && ls.dirs[1].up }

type nodeState struct {
	table *fib.Table
	// believedUp[p] is the port's detected state; lags actual by
	// DetectionDelay. The table's live-hop memo holds what the usable
	// predicate read from it, so every flip must invalidate the memo.
	believedUp []bool
	recv       ReceiveFunc
	// usable is the node's next-hop liveness predicate, built once so the
	// forwarding hot path never allocates a closure per packet.
	usable func(fib.NextHop) bool
}

// Network is the runtime data plane over a topology. Its state — FIB
// tables, link/node state, the in-flight event pool — belongs to exactly
// one simulation.
type Network struct {
	sim   *sim.Simulator
	topo  *topo.Topology
	cfg   Config
	nodes []nodeState
	links []linkState
	det   detect.Detector

	onPortState []PortStateFunc
	onDrop      []DropFunc
	lossFilter  LossFunc
	detFilter   DetectionFilter

	// Hot-path free lists: packets (NewPacket) and in-flight hop records
	// (one per scheduled arrival/forward event) are recycled for the life
	// of the network instead of allocated per hop.
	pkts   sim.FreeList[Packet]
	events sim.FreeList[netEvent]

	stats Stats
}

// netEvent is one pooled in-flight record: either a packet arriving at the
// far end of a link direction or a packet leaving a switch after its
// processing delay. Using a static dispatch function plus a pooled record
// replaces the two closures the old per-hop path allocated.
//
// An arrival queued behind its direction's head is not yet a simulator
// event: it carries the time and the sequence number it reserved at
// transmit, and the head schedules it with both when it runs. Arrival
// times on a direction never decrease (each is nextFree plus a constant
// propagation delay), so the FIFO is in (at, seq) order and every event
// runs where a directly scheduled one would have.
type netEvent struct {
	n    *Network
	pkt  *Packet
	next *netEvent   // arrive only: the next arrival on the direction
	at   sim.Time    // arrive only, while queued: the arrival time
	seq  uint64      // arrive only, while queued: the reserved sequence number
	node topo.NodeID // arrive: receiver; forward: forwarding switch
	from topo.NodeID // arrive only: transmitter, for drop attribution
	link topo.LinkID // arrive only
	dir  int8        // arrive only
	kind uint8
}

// netEvent kinds.
const (
	evArrive uint8 = iota + 1
	evForward
)

// runNetEvent is the static sim.ArgEvent all in-flight hops share.
func runNetEvent(now sim.Time, arg any) {
	ev, ok := arg.(*netEvent)
	if !ok {
		return
	}
	n, pkt, node, from, kind := ev.n, ev.pkt, ev.node, ev.from, ev.kind
	up := true
	if kind == evArrive {
		d := &n.links[ev.link].dirs[ev.dir]
		if nx := ev.next; nx != nil {
			n.sim.AtArgSeq(nx.at, nx.seq, runNetEvent, nx)
		} else {
			d.tail = nil
		}
		up = d.up
	}
	n.events.Put(ev)
	switch {
	case kind == evForward:
		n.forward(now, node, pkt)
	case !up:
		// The direction died while the packet was in queue or flight.
		n.drop(now, from, pkt, DropLinkDown)
	default:
		n.arrive(now, node, pkt)
	}
}

// poisonNetEvent marks a released in-flight record: it carries no network
// or packet, names no node, link or direction, and its time and sequence
// number fit no FIFO.
func poisonNetEvent(ev *netEvent) {
	ev.n, ev.pkt, ev.next, ev.kind = nil, nil, nil, 0
	ev.node, ev.from, ev.link, ev.dir, ev.at, ev.seq = topo.None, topo.None, topo.None, -1, -1, math.MaxUint64
}

// NewPacket returns a zeroed packet from the network's free list. Packets
// obtained here are recycled automatically when they die (delivered or
// dropped); see the retention contract on Packet.
func (n *Network) NewPacket() *Packet {
	p := n.pkts.Get()
	*p = Packet{pooled: true}
	return p
}

// poisonPacket marks a released packet: a flow key no host or transport
// uses (the all-ones addresses, protocol 255) and negative size, TTL, send
// time and hop count.
func poisonPacket(p *Packet) {
	p.Flow = fib.FlowKey{Src: ^netaddr.Addr(0), Dst: ^netaddr.Addr(0), Proto: 255}
	p.Size, p.TTL, p.SentAt, p.Hops, p.Payload = -1, -1, -1, -1, nil
}

// LossFunc lets tests and fault injectors drop individual packets at a
// transmitting node; return true to drop. Filtered packets are recorded
// under DropInjected so oracles can tell injected loss from the structural
// blackholes (DropLinkDown) the paper's recovery windows measure.
type LossFunc func(now sim.Time, at topo.NodeID, port int, pkt *Packet) bool

// DetectionFilter lets fault injectors suppress a failure detector firing
// (a switch whose BFD/hello processing has wedged): return true and the
// port's believed state stays stale. Callers that suppress transitions are
// responsible for calling RescanPorts once the fault clears, or beliefs
// stay stale forever.
type DetectionFilter func(now sim.Time, node topo.NodeID, port int, observed bool) bool

// New instantiates the topology. All live links start up; FIBs start with
// only connected routes (each ToR knows its attached hosts and each host
// has a default route to its ToR).
func New(s *sim.Simulator, t *topo.Topology, cfg Config) (*Network, error) {
	n := &Network{
		sim:    s,
		topo:   t,
		cfg:    cfg.withDefaults(),
		nodes:  make([]nodeState, len(t.Nodes)),
		links:  make([]linkState, len(t.Links)),
		pkts:   sim.NewFreeList(poisonPacket),
		events: sim.NewFreeList(poisonNetEvent),
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		n.nodes[i] = nodeState{
			table:      fib.New(),
			believedUp: make([]bool, nd.NumPorts),
		}
		st := &n.nodes[i]
		for p := range st.believedUp {
			st.believedUp[p] = true
		}
		st.usable = func(nh fib.NextHop) bool { return st.believedUp[nh.Port] }
		if !n.cfg.DisableFlowCache {
			st.table.EnableFlowCache(0)
		}
	}
	for i := range t.Links {
		live := !t.Links[i].Removed
		n.links[i].dirs[0].up = live
		n.links[i].dirs[1].up = live
	}
	if err := n.installConnectedRoutes(); err != nil {
		return nil, err
	}
	det, err := detect.New(n.cfg.Detector.WithDefaults(n.cfg.DetectionDelay), n)
	if err != nil {
		return nil, err
	}
	n.det = det
	n.det.Start()
	return n, nil
}

// installConnectedRoutes seeds host default routes and ToR host routes.
func (n *Network) installConnectedRoutes() error {
	for _, id := range n.topo.LiveNodes() {
		if err := n.ReinstallConnectedRoutes(id); err != nil {
			return err
		}
	}
	return nil
}

// ReinstallConnectedRoutes re-seeds the connected-scope routes of one node:
// the default route for a host, the attached-host routes for a ToR, nothing
// for other switches. Chaos uses it to rebuild a switch's FIB after a
// crash wiped it.
func (n *Network) ReinstallConnectedRoutes(id topo.NodeID) error {
	nd := n.topo.Node(id)
	switch nd.Kind {
	case topo.Host:
		defaultRoute, err := netaddrDefault()
		if err != nil {
			return err
		}
		ls := n.topo.LinksOf(id)
		if len(ls) == 0 {
			return fmt.Errorf("network: host %s has no links", nd.Name)
		}
		// Dual-homed hosts (dual-ToR racks) ECMP their default route over
		// every uplink; the usable predicate steers around a detected-down
		// one.
		hops := make([]fib.NextHop, 0, len(ls))
		for _, l := range ls {
			port, _ := l.PortOf(id)
			tor, _ := l.Other(id)
			hops = append(hops, fib.NextHop{Port: port, Via: n.topo.Node(tor).Addr})
		}
		sort.Slice(hops, func(i, j int) bool { return fib.HopLess(hops[i], hops[j]) })
		err = n.nodes[id].table.Add(fib.Route{
			Prefix: defaultRoute, Source: fib.Static, NextHops: hops,
		})
		if err != nil {
			return err
		}
	case topo.ToR:
		for _, l := range n.topo.LinksOf(id) {
			other, _ := l.Other(id)
			if n.topo.Node(other).Kind != topo.Host {
				continue
			}
			port, _ := l.PortOf(id)
			err := n.nodes[id].table.Add(fib.Route{
				Prefix: hostPrefix(n.topo.Node(other).Addr), Source: fib.Connected,
				NextHops: []fib.NextHop{{Port: port, Via: n.topo.Node(other).Addr}},
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Sim returns the simulator driving the network.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Topology returns the underlying topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Table returns a node's FIB so control planes can install routes.
func (n *Network) Table(node topo.NodeID) *fib.Table { return n.nodes[node].table }

// SetHostReceiver registers the packet sink for a host.
func (n *Network) SetHostReceiver(host topo.NodeID, fn ReceiveFunc) {
	n.nodes[host].recv = fn
}

// OnPortState registers a detected-port-state listener (the control plane).
func (n *Network) OnPortState(fn PortStateFunc) {
	n.onPortState = append(n.onPortState, fn)
}

// OnDrop registers a drop observer; multiple observers all fire.
func (n *Network) OnDrop(fn DropFunc) { n.onDrop = append(n.onDrop, fn) }

// SetLossFilter installs (or clears, with nil) a per-packet loss filter
// consulted when a node transmits.
func (n *Network) SetLossFilter(fn LossFunc) { n.lossFilter = fn }

// SetDetectionFilter installs (or clears, with nil) a failure-detector
// suppression filter consulted before a port's believed state flips.
func (n *Network) SetDetectionFilter(fn DetectionFilter) { n.detFilter = fn }

// RescanPorts re-arms the failure detectors on every link of node, so the
// port beliefs re-converge to the actual link state after a detection
// fault (suppressed hellos) ends. Endpoints whose belief already matches
// are untouched.
func (n *Network) RescanPorts(node topo.NodeID) {
	for _, l := range n.topo.LinksOf(node) {
		n.scheduleDetection(l.ID)
	}
}

// PortBelievedUp reports the node's detected state of a local port.
func (n *Network) PortBelievedUp(node topo.NodeID, port int) bool {
	b := n.nodes[node].believedUp
	if port < 0 || port >= len(b) {
		return false
	}
	return b[port]
}

// LinkUp reports whether a link is healthy in both directions.
func (n *Network) LinkUp(id topo.LinkID) bool { return n.links[id].bothUp() }

// LinkDirUp reports the actual state of the direction leaving `from`.
func (n *Network) LinkDirUp(id topo.LinkID, from topo.NodeID) bool {
	l := n.topo.Link(id)
	dir := 0
	if l.B == from {
		dir = 1
	}
	return n.links[id].dirs[dir].up
}

// LinkStats is per-direction link telemetry.
type LinkStats struct {
	Packets     uint64
	Bytes       uint64
	PeakBacklog float64 // bytes queued behind the fullest accepted packet
}

// LinkStatsFor returns telemetry for the direction leaving `from`.
func (n *Network) LinkStatsFor(id topo.LinkID, from topo.NodeID) LinkStats {
	l := n.topo.Link(id)
	dir := 0
	if l.B == from {
		dir = 1
	}
	d := &n.links[id].dirs[dir]
	return LinkStats{Packets: d.packets, Bytes: d.bytes, PeakBacklog: d.peakBacklogB}
}

// Stats returns a copy of the forwarding counters.
func (n *Network) Stats() Stats { return n.stats }

// SetLinkState changes a link's actual state in both directions at the
// current simulation time and schedules both endpoints' failure detectors
// to notice after DetectionDelay. Setting the current state again is a
// no-op.
func (n *Network) SetLinkState(id topo.LinkID, up bool) {
	ls := &n.links[id]
	if ls.dirs[0].up == up && ls.dirs[1].up == up {
		return
	}
	ls.dirs[0].up = up
	ls.dirs[1].up = up
	n.scheduleDetection(id)
}

// SetLinkDirectionState changes only the direction leaving `from` — the
// unidirectional failures the paper defers to future work. Detection is
// BFD-like: losing either direction kills the session, so both endpoints
// detect the port down.
func (n *Network) SetLinkDirectionState(id topo.LinkID, from topo.NodeID, up bool) {
	l := n.topo.Link(id)
	dir := 0
	if l.B == from {
		dir = 1
	}
	ls := &n.links[id]
	if ls.dirs[dir].up == up {
		return
	}
	ls.dirs[dir].up = up
	n.scheduleDetection(id)
}

// scheduleDetection hands a link-state change to the configured detector.
func (n *Network) scheduleDetection(id topo.LinkID) {
	n.det.LinkChanged(id)
}

// DetectionBound is a conservative upper bound on how long the configured
// detector takes to converge port beliefs after a link transition.
func (n *Network) DetectionBound() time.Duration { return n.det.Bound() }

// StopDetector halts free-running detector work (BFD session ticks) so
// the simulator can drain to idle; beliefs freeze as they are. Drivers
// call it after their measurement horizon, alongside stopping sources.
func (n *Network) StopDetector() { n.det.Stop() }

// The methods below implement detect.DataPlane.

// After schedules fn on the network's simulator.
func (n *Network) After(d time.Duration, fn func(now sim.Time)) { n.sim.After(d, fn) }

// NumLinks returns the topology's link count.
func (n *Network) NumLinks() int { return len(n.links) }

// LinkLive reports whether the link structurally exists.
func (n *Network) LinkLive(id topo.LinkID) bool { return !n.topo.Link(id).Removed }

// LinkEnds returns the link's endpoints, A end first.
func (n *Network) LinkEnds(id topo.LinkID) [2]detect.PortRef {
	l := n.topo.Link(id)
	return [2]detect.PortRef{{Node: l.A, Port: l.APort}, {Node: l.B, Port: l.BPort}}
}

// EchoDelay reports, per direction, the latency a zero-size echo probe
// transmitted now would see: the queue drain ahead of it plus one-way
// propagation. Probes are latency samples, not packets — they perturb
// neither the queues nor the conservation ledgers.
func (n *Network) EchoDelay(id topo.LinkID) [2]time.Duration {
	now := n.sim.Now()
	ls := &n.links[id]
	var out [2]time.Duration
	for d := range ls.dirs {
		var q time.Duration
		if ls.dirs[d].nextFree > now {
			q = ls.dirs[d].nextFree.Sub(now)
		}
		out[d] = q + n.cfg.PropDelay
	}
	return out
}

// SetPortBelief records a detector verdict for a node's local port. No-op
// verdicts are ignored; an installed DetectionFilter may suppress the
// transition. Accepted flips invalidate the node's live-hop memo and fan out
// to port-state listeners. A down verdict against a link that is actually
// healthy in both directions counts as a detector false positive.
func (n *Network) SetPortBelief(now sim.Time, node topo.NodeID, port int, up bool) {
	st := &n.nodes[node]
	if port < 0 || port >= len(st.believedUp) || st.believedUp[port] == up {
		return
	}
	if n.detFilter != nil && n.detFilter(now, node, port, up) {
		return // suppressed: belief stays stale until a rescan
	}
	if !up {
		if l := n.topo.LinkOnPort(node, port); l != nil && n.links[l.ID].bothUp() {
			n.stats.FalseDowns++
		}
	}
	st.believedUp[port] = up
	// Link-usability transition: memoized live sets on this node may now
	// bypass (or miss) the F²Tree fallback.
	st.table.InvalidateFlowCache()
	for _, fn := range n.onPortState {
		fn(now, node, port, up)
	}
}

// FailLink and RestoreLink are readability helpers over SetLinkState.
func (n *Network) FailLink(id topo.LinkID)    { n.SetLinkState(id, false) }
func (n *Network) RestoreLink(id topo.LinkID) { n.SetLinkState(id, true) }

// SendFromHost injects a packet at a host at the current simulation time.
// The packet's TTL and SentAt are stamped here.
func (n *Network) SendFromHost(host topo.NodeID, pkt *Packet) {
	pkt.TTL = n.cfg.TTL
	pkt.SentAt = n.sim.Now()
	n.stats.Sent++
	n.forward(n.sim.Now(), host, pkt)
}

// drop records a packet loss. The packet dies here: once the observers
// have run, pool-owned packets are recycled.
func (n *Network) drop(now sim.Time, at topo.NodeID, pkt *Packet, cause DropCause) {
	n.stats.Drops[cause]++
	for _, fn := range n.onDrop {
		fn(now, at, pkt, cause)
	}
	if pkt.pooled {
		n.pkts.Put(pkt)
	}
}

// forward routes pkt out of node (host or switch) at time now.
func (n *Network) forward(now sim.Time, node topo.NodeID, pkt *Packet) {
	st := &n.nodes[node]
	res, ok := st.table.Lookup(pkt.Flow.Dst, pkt.Flow, st.usable)
	if !ok {
		n.drop(now, node, pkt, DropNoRoute)
		return
	}
	n.transmit(now, node, res.NextHop.Port, pkt)
}

// transmit queues pkt on the given port of node.
func (n *Network) transmit(now sim.Time, node topo.NodeID, port int, pkt *Packet) {
	if n.lossFilter != nil && n.lossFilter(now, node, port, pkt) {
		n.drop(now, node, pkt, DropInjected)
		return
	}
	l := n.topo.LinkOnPort(node, port)
	if l == nil {
		n.drop(now, node, pkt, DropLinkDown)
		return
	}
	ls := &n.links[l.ID]
	dir := 0
	if l.B == node {
		dir = 1
	}
	d := &ls.dirs[dir]
	if !d.up {
		// Transmitting into a dead wire: the blackhole that lasts until
		// the detector fires.
		n.drop(now, node, pkt, DropLinkDown)
		return
	}
	txTime := time.Duration(float64(pkt.Size*8) / n.cfg.BandwidthBps * float64(time.Second))
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	// Drop-tail: the backlog ahead of this packet, in bytes, must fit the
	// queue. An idle transmitter (start == now) has none, and 0 bytes
	// exceed neither a non-negative QueueBytes nor the recorded peak, so
	// the float arithmetic is skipped for it.
	if start > now || n.cfg.QueueBytes < 0 {
		backlogBytes := start.Sub(now).Seconds() * n.cfg.BandwidthBps / 8
		if backlogBytes > float64(n.cfg.QueueBytes) {
			n.drop(now, node, pkt, DropQueueOverflow)
			return
		}
		if backlogBytes > d.peakBacklogB {
			d.peakBacklogB = backlogBytes
		}
	}
	d.packets++
	d.bytes += uint64(pkt.Size)
	d.nextFree = start.Add(txTime)
	other, _ := l.Other(node)
	arrive := d.nextFree.Add(n.cfg.PropDelay)
	ev := n.events.Get()
	// ev owns pkt until runNetEvent releases it. Field by field, as a
	// composite literal is built on the stack and copied.
	ev.n, ev.pkt, ev.next, ev.kind = n, pkt, nil, evArrive
	ev.node, ev.from, ev.link, ev.dir, ev.at, ev.seq = other, node, l.ID, int8(dir), arrive, 0
	if d.tail != nil {
		// An earlier arrival is in flight: queue behind it under the
		// sequence number AtArg would have taken now.
		ev.seq = n.sim.ReserveSeq()
		d.tail.next = ev
	} else {
		n.sim.AtArg(arrive, runNetEvent, ev)
	}
	d.tail = ev
}

// arrive handles pkt reaching node.
func (n *Network) arrive(now sim.Time, node topo.NodeID, pkt *Packet) {
	nd := n.topo.Node(node)
	if nd.Kind == topo.Host {
		if pkt.Flow.Dst != nd.Addr {
			n.drop(now, node, pkt, DropNotForMe)
			return
		}
		n.stats.Delivered++
		if st := &n.nodes[node]; st.recv != nil {
			st.recv(now, pkt)
		}
		if pkt.pooled {
			n.pkts.Put(pkt)
		}
		return
	}
	// Switch hop.
	pkt.TTL--
	pkt.Hops++
	if pkt.TTL <= 0 {
		n.drop(now, node, pkt, DropTTLExpired)
		return
	}
	ev := n.events.Get()
	// ev owns pkt until runNetEvent releases it.
	ev.n, ev.pkt, ev.next, ev.kind = n, pkt, nil, evForward
	ev.node, ev.from, ev.link, ev.dir, ev.at, ev.seq = node, topo.None, topo.None, 0, 0, 0
	n.sim.AfterArg(n.cfg.ProcDelay, runNetEvent, ev)
}
