// Package ospf implements the link-state routing control plane the paper's
// testbed runs (Quagga ospfd): router LSAs, epidemic flooding, Dijkstra
// shortest paths with ECMP, and — the part that dominates the paper's
// recovery-time measurements — Quagga-style SPF throttling with
// exponential hold backoff and a delayed FIB install.
//
// The recovery anatomy the paper measures decomposes as
//
//	detect (60 ms, package network) → flood LSAs (fast) →
//	wait SPF delay (200 ms initial, up to ~10 s under churn) →
//	compute SPF → install FIB (10 ms)
//
// and every stage is modeled explicitly here.
package ospf

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the control-plane timers.
type Config struct {
	// SPFDelay is the initial wait between the first SPF trigger and the
	// computation (Quagga's default 200 ms, the paper's §I anatomy).
	SPFDelay time.Duration
	// SPFHoldInitial is the quiet period after an SPF run before another
	// may start.
	SPFHoldInitial time.Duration
	// SPFHoldMax caps the exponentially backed-off hold (the paper
	// observes ~9 s timers under churn, §IV-B).
	SPFHoldMax time.Duration
	// FIBUpdateDelay is the delay between SPF completion and the routes
	// landing in the forwarding table (the paper's measured 10 ms).
	FIBUpdateDelay time.Duration
	// FloodHopDelay is the per-hop LSA propagation + processing delay.
	FloodHopDelay time.Duration
	// DisableThrottle removes the hold backoff (ablation: every trigger
	// waits only SPFDelay).
	DisableThrottle bool
	// FullSPF is inert: every SPF run is a full search. It is kept only
	// because bench/kernels.go still sets it; ROADMAP item 1, which
	// re-records the benchmark, deletes it.
	FullSPF bool
}

// DefaultConfig returns Quagga's defaults as the paper describes them.
func DefaultConfig() Config {
	return Config{
		SPFDelay:       200 * time.Millisecond,
		SPFHoldInitial: 1 * time.Second,
		SPFHoldMax:     10 * time.Second,
		FIBUpdateDelay: 10 * time.Millisecond,
		FloodHopDelay:  1 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SPFDelay == 0 {
		c.SPFDelay = d.SPFDelay
	}
	if c.SPFHoldInitial == 0 {
		c.SPFHoldInitial = d.SPFHoldInitial
	}
	if c.SPFHoldMax == 0 {
		c.SPFHoldMax = d.SPFHoldMax
	}
	if c.FIBUpdateDelay == 0 {
		c.FIBUpdateDelay = d.FIBUpdateDelay
	}
	if c.FloodHopDelay == 0 {
		c.FloodHopDelay = d.FloodHopDelay
	}
	return c
}

// Adjacency is one up link a router advertises.
type Adjacency struct {
	Neighbor topo.NodeID
	Link     topo.LinkID
}

// LSA is a router link-state advertisement. It is immutable once
// originated: every LSDB it reaches holds the same pointer. Adjacencies are
// sorted by (Neighbor, Link) at origination, so adjacency rows built from
// them come out sorted and the two-way check can stop early (adjOK).
type LSA struct {
	Origin      topo.NodeID
	Seq         uint64
	Adjacencies []Adjacency
	Prefixes    []netaddr.Prefix

	// row is Adjacencies in switch-ordinal space, built once on first use
	// (edges). Every instance whose two-way check passes all of them uses
	// it as its adjacency row for Origin, so no instance copies it.
	row []topo.Edge
	// peer, parallel to row, memoizes the two-way check: peer[k] is a far
	// end LSA that row[k] passed against (adjOK), nil until one did.
	peer []*LSA
}

// edges returns the LSA's adjacencies as an ordinal-space row (sorted like
// Adjacencies, since ordinals ascend with NodeID), building it and its
// two-way-check memo on first use — so LSAs built by hand work too.
func (l *LSA) edges(sw *topo.SwitchIndex) []topo.Edge {
	if l.row == nil && len(l.Adjacencies) > 0 {
		l.row = make([]topo.Edge, len(l.Adjacencies))
		l.peer = make([]*LSA, len(l.Adjacencies))
		for k, a := range l.Adjacencies {
			l.row[k] = topo.Edge{To: sw.Ordinal(a.Neighbor), Link: a.Link}
		}
	}
	return l.row
}

// FloodFilter lets fault injectors interfere with LSA flooding on the
// from→to hop: drop swallows the LSA (it is lost like on a dead wire);
// a non-zero delay defers its delivery by that much. The zero return
// (false, 0) leaves the flood untouched.
type FloodFilter func(now sim.Time, from, to topo.NodeID, lsa *LSA) (drop bool, delay time.Duration)

// Domain runs one OSPF instance per switch of a network.
type Domain struct {
	sim  *sim.Simulator
	nw   *network.Network
	topo *topo.Topology
	cfg  Config

	instances   []*Instance // indexed by NodeID; nil for hosts and dead switches
	sw          topo.SwitchIndex
	scratch     spfScratch
	onSPF       func(now sim.Time, node topo.NodeID)
	floodFilter FloodFilter
	freeFloods  []*floodRec // recycled flood records
	// floodTail is the last record of the flood FIFO (nil when empty):
	// only its head is a simulator event (queueFlood, deliverFlood).
	floodTail *floodRec
}

// floodRec is the pooled record of the hops of one flood call that share a
// delivery instant (indices into the sender's adj, in port order): one event
// delivers them. delay keys the record while the call still collects hops.
//
// A record queued behind the flood FIFO's head is not yet a simulator event:
// it carries its delivery time and the sequence number it reserved when the
// flood call made it, and its predecessor schedules it with both when it
// runs. Times along the FIFO never decrease, so it is in (at, seq) order and
// every record runs where a directly scheduled one would have.
type floodRec struct {
	inst  *Instance
	lsa   *LSA
	delay time.Duration
	hops  []int32
	next  *floodRec // the next record of the FIFO
	at    sim.Time  // delivery time
	seq   uint64    // while queued: the reserved sequence number
}

// localAdj is one switch-facing link of a router: the neighbor, the link
// and the local port it occupies.
type localAdj struct {
	neighbor topo.NodeID
	link     topo.LinkID
	port     int
}

// Instance is the per-router protocol state. Everything it keeps per
// origin is indexed by switch ordinal (Domain.sw), not NodeID: an instance
// holds nothing per host.
type Instance struct {
	d    *Domain
	node topo.NodeID
	ord  topo.NodeID // node's switch ordinal

	// adj lists the switch neighbors in port order (the order floods are
	// scheduled in); hops[p] is the next hop out of local port p. A port
	// carries one link, so the port names the next hop and an ECMP set is
	// a bitmask over ports (a topo.Search port mask).
	adj  []localAdj
	hops []fib.NextHop

	// lsdb holds the latest LSA per origin, indexed by ordinal (nil = none).
	lsdb []*LSA
	seq  uint64
	// down marks a crashed router: it neither floods, receives nor
	// computes until restarted. seq survives the crash so post-restart
	// LSAs supersede the pre-crash ones held by the rest of the domain.
	down bool

	// SPF throttle state.
	pending   bool
	pendingAt sim.Time
	wasHeld   bool
	holdUntil sim.Time
	curHold   time.Duration

	// out is the route list SPF runs emit into, reused run to run.
	// installs holds the lists computed but not yet installed, oldest
	// first; while it is non-empty a run emits into a fresh list instead,
	// so no configuration of the delays can overwrite a pending install.
	out      routeList
	installs [][]fib.Route
	// installedValid is false whenever the table contents cannot be
	// assumed (before the first install, after a crash or restart); the
	// next install counts as full.
	installedValid bool
	fullInstalls   int
	deltaInstalls  int

	// Diagnostics.
	spfRuns   int
	lastSPFAt sim.Time
	maxWait   time.Duration // longest trigger→run wait observed
	triggerAt sim.Time      // earliest un-serviced trigger
}

// NewDomain attaches a control plane to every live switch of nw.
func NewDomain(nw *network.Network, cfg Config) *Domain {
	d := &Domain{
		sim:       nw.Sim(),
		nw:        nw,
		topo:      nw.Topology(),
		cfg:       cfg.withDefaults(),
		instances: make([]*Instance, len(nw.Topology().Nodes)),
		sw:        topo.NewSwitchIndex(nw.Topology()),
	}
	n := d.sw.Len()
	d.scratch.init(n)
	for _, id := range d.topo.LiveNodes() {
		nd := d.topo.Node(id)
		if nd.Kind == topo.Host {
			continue
		}
		links := d.topo.LinksOf(id)
		inst := &Instance{
			d:       d,
			node:    id,
			ord:     d.sw.Ordinal(id),
			adj:     make([]localAdj, 0, len(links)),
			hops:    make([]fib.NextHop, nd.NumPorts),
			lsdb:    make([]*LSA, n),
			curHold: d.cfg.SPFHoldInitial,
		}
		for _, l := range links {
			other, _ := l.Other(id)
			if d.topo.Node(other).Kind == topo.Host {
				continue
			}
			port, _ := l.PortOf(id)
			inst.adj = append(inst.adj, localAdj{neighbor: other, link: l.ID, port: port})
			inst.hops[port] = fib.NextHop{Port: port, Via: d.topo.Node(other).Addr}
		}
		d.instances[id] = inst
	}
	nw.OnPortState(d.portStateChanged)
	return d
}

// OnSPF registers a hook invoked after each SPF run (diagnostics).
func (d *Domain) OnSPF(fn func(now sim.Time, node topo.NodeID)) { d.onSPF = fn }

// SetFloodFilter installs (or clears, with nil) a fault filter on every
// LSA flooding hop.
func (d *Domain) SetFloodFilter(fn FloodFilter) { d.floodFilter = fn }

// SetNodeDown crashes (down=true) or restarts (down=false) a router's
// protocol instance. A crashed instance ignores every received LSA, floods
// nothing and runs no SPF; its LSDB is wiped on restart — only the
// origin-sequence counter survives, so post-restart LSAs supersede stale
// copies elsewhere. On restart the instance re-originates from its current
// believed port state and schedules an SPF; callers that want the rest of
// the domain to refill the restarted LSDB follow up with RefreshAll once
// the restarted links are believed up again.
func (d *Domain) SetNodeDown(now sim.Time, node topo.NodeID, down bool) {
	inst := d.Instance(node)
	if inst == nil || inst.down == down {
		return
	}
	inst.down = down
	if down {
		// The forwarding table may be cleared while the router is down.
		inst.installedValid = false
		return
	}
	clear(inst.lsdb)
	inst.pending = false
	inst.curHold = d.cfg.SPFHoldInitial
	inst.holdUntil = 0
	inst.wasHeld = false
	inst.triggerAt = 0
	inst.originate(now)
	inst.scheduleSPF(now)
}

// NodeDown reports whether the router's instance is crashed.
func (d *Domain) NodeDown(node topo.NodeID) bool {
	inst := d.Instance(node)
	return inst != nil && inst.down
}

// RefreshAll makes every live instance re-originate and flood its LSA —
// RFC 2328's periodic LSA refresh compressed into one on-demand round.
// Chaos runs it after a window of dropped floods or a router restart, when
// epidemic flooding alone can no longer repair LSDB staleness (our model
// floods only on change and has no ack/retransmit machinery).
func (d *Domain) RefreshAll(now sim.Time) {
	for _, inst := range d.instances {
		if inst == nil || inst.down {
			continue
		}
		inst.originate(now)
		inst.scheduleSPF(now)
	}
}

// Instance returns the protocol instance of a switch, or nil.
func (d *Domain) Instance(node topo.NodeID) *Instance {
	if node < 0 || int(node) >= len(d.instances) {
		return nil
	}
	return d.instances[node]
}

// SPFTotals sums the SPF runs of every instance, bootstrap included. Every
// run is a full search, so incremental and unchanged are always 0; the
// three counts are kept for bench/, which reports each.
func (d *Domain) SPFTotals() (full, incremental, unchanged int) {
	for _, inst := range d.instances {
		if inst != nil {
			full += inst.spfRuns
		}
	}
	return full, 0, 0
}

// InstallTotals sums the per-instance FIB install breakdown.
func (d *Domain) InstallTotals() (full, delta int) {
	for _, inst := range d.instances {
		if inst != nil {
			full, delta = full+inst.fullInstalls, delta+inst.deltaInstalls
		}
	}
	return full, delta
}

// Bootstrap fills every LSDB and installs converged routes synchronously at
// the current simulation time, modeling a network that finished its initial
// convergence before the experiment starts. Throttle state stays quiet, so
// the first failure is handled with the initial SPF delay.
//
// It fails if a switch has more ports than a hop set can name: routes over
// the excess ports would silently vanish from every ECMP set.
func (d *Domain) Bootstrap() error {
	// Ascending NodeID keeps install order and any error deterministic.
	var insts []*Instance
	for _, inst := range d.instances {
		if inst == nil {
			continue
		}
		if nd := d.topo.Node(inst.node); nd.NumPorts > hopSetPorts {
			return fmt.Errorf("bootstrap %s: %d ports, next-hop sets name at most %d", nd.Name, nd.NumPorts, hopSetPorts)
		}
		insts = append(insts, inst)
	}
	for _, inst := range insts {
		inst.originateLocked()
	}
	// Copy every origin LSA into every LSDB.
	for _, inst := range insts {
		for _, src := range insts {
			inst.lsdb[src.ord] = src.lsdb[src.ord]
		}
	}
	// Every LSDB now holds the same LSAs, so one set of two-way-checked
	// adjacency rows serves every instance's search. Installs are
	// synchronous and ReplaceSource copies what it keeps, so one route
	// list serves all.
	var list routeList
	if len(insts) > 0 {
		insts[0].buildGraph()
	}
	for _, inst := range insts {
		inst.search()
		routes := inst.emitRoutes(&list)
		if err := d.nw.Table(inst.node).ReplaceSource(fib.OSPF, routes); err != nil {
			return fmt.Errorf("bootstrap %s: %w", d.topo.Node(inst.node).Name, err)
		}
		inst.installedValid = true
		inst.spfRuns++
	}
	return nil
}

// portStateChanged reacts to a failure detector firing on a switch.
func (d *Domain) portStateChanged(now sim.Time, node topo.NodeID, port int, up bool) {
	inst := d.Instance(node)
	if inst == nil || inst.down {
		return // host port (no protocol) or crashed router
	}
	inst.originate(now)
	inst.scheduleSPF(now)
}

// originate rebuilds this router's own LSA from believed port state and
// floods it.
func (i *Instance) originate(now sim.Time) {
	lsa := i.originateLocked()
	i.flood(now, lsa, topo.NodeID(topo.None))
}

// originateLocked rebuilds and stores the LSA without flooding.
func (i *Instance) originateLocked() *LSA {
	i.seq++
	nd := i.d.topo.Node(i.node)
	lsa := &LSA{Origin: i.node, Seq: i.seq}
	for _, a := range i.adj {
		if i.d.nw.PortBelievedUp(i.node, a.port) {
			lsa.Adjacencies = append(lsa.Adjacencies, Adjacency{Neighbor: a.neighbor, Link: a.link})
		}
	}
	slices.SortFunc(lsa.Adjacencies, func(a, b Adjacency) int {
		return cmp.Or(cmp.Compare(a.Neighbor, b.Neighbor), cmp.Compare(a.Link, b.Link))
	})
	if nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
		lsa.Prefixes = append(lsa.Prefixes, nd.Subnet)
	}
	i.lsdb[i.ord] = lsa
	return lsa
}

// flood sends lsa to every believed-up switch neighbor except `from`. The
// LSA is lost if the link is actually down at delivery time; epidemic
// re-flooding through the rest of the graph still converges as long as the
// network is connected.
//
// The hops of a call that land at one instant ride in one simulator event:
// scheduled back to back, they would run consecutively and in port order
// anyway, so only the event count changes (DESIGN.md §13). Hops a
// FloodFilter spreads over several instants get one record per instant,
// keyed on the delay as the simulator clamps it, scheduled when first seen.
func (i *Instance) flood(now sim.Time, lsa *LSA, from topo.NodeID) {
	if i.down {
		return
	}
	d := i.d
	open := make([]*floodRec, 0, 4) // this call's records (on the stack); more than one only under a delaying filter
	for k, a := range i.adj {
		if a.neighbor == from || !d.nw.PortBelievedUp(i.node, a.port) {
			continue
		}
		delay := d.cfg.FloodHopDelay
		if d.floodFilter != nil {
			drop, extra := d.floodFilter(now, i.node, a.neighbor, lsa)
			if drop {
				continue // swallowed by the fault, like a dead wire
			}
			delay = max(0, delay+extra) // negative delays all mean "now"
		}
		var rec *floodRec
		for _, r := range open {
			if r.delay == delay {
				rec = r
			}
		}
		if rec == nil {
			if n := len(d.freeFloods); n > 0 {
				rec, d.freeFloods = d.freeFloods[n-1], d.freeFloods[:n-1]
			} else {
				rec = &floodRec{}
			}
			rec.inst, rec.lsa, rec.delay = i, lsa, delay
			open = append(open, rec)
			d.queueFlood(rec)
		}
		rec.hops = append(rec.hops, int32(k))
	}
}

// queueFlood schedules rec to deliver rec.delay from now, as AfterArg would.
// A record due no earlier than the FIFO's tail waits behind it under the
// sequence number AfterArg would have taken now. One due earlier — only a
// delaying FloodFilter makes one — is scheduled directly and stays off the
// FIFO.
func (d *Domain) queueFlood(rec *floodRec) {
	rec.at = d.sim.Now().Add(rec.delay)
	if t := d.floodTail; t != nil && rec.at >= t.at {
		rec.seq = d.sim.ReserveSeq()
		t.next, d.floodTail = rec, rec
		return
	}
	d.sim.AtArg(rec.at, deliverFlood, rec)
	if d.floodTail == nil {
		d.floodTail = rec
	}
}

// deliverFlood is the sim.ArgEvent of a flood record: it schedules the
// record's FIFO successor, then hands the LSA to each hop's neighbor in
// order, unless the wire died in flight.
func deliverFlood(at sim.Time, arg any) {
	rec := arg.(*floodRec)
	i := rec.inst
	d := i.d
	if nx := rec.next; nx != nil {
		d.sim.AtArgSeq(nx.at, nx.seq, deliverFlood, nx)
	} else if d.floodTail == rec {
		d.floodTail = nil
	}
	for _, k := range rec.hops {
		a := &i.adj[k]
		if ni := d.instances[a.neighbor]; ni != nil && d.nw.LinkDirUp(a.link, i.node) { // else lost on a dead wire
			ni.receive(at, rec.lsa, i.node)
		}
	}
	rec.inst, rec.lsa, rec.hops, rec.next = nil, nil, rec.hops[:0], nil
	d.freeFloods = append(d.freeFloods, rec)
}

// receive processes a flooded LSA.
func (i *Instance) receive(now sim.Time, lsa *LSA, from topo.NodeID) {
	if i.down {
		return // crashed: the LSA is lost on the floor
	}
	o := i.d.sw.Ordinal(lsa.Origin)
	cur := i.lsdb[o]
	if cur != nil && cur.Seq >= lsa.Seq {
		return // stale or duplicate
	}
	i.lsdb[o] = lsa
	i.flood(now, lsa, from)
	i.scheduleSPF(now)
}

// scheduleSPF arms the throttled SPF timer.
func (i *Instance) scheduleSPF(now sim.Time) {
	if i.pending {
		return
	}
	if i.triggerAt == 0 || i.triggerAt < i.lastSPFAt {
		i.triggerAt = now
	}
	start := now.Add(i.d.cfg.SPFDelay)
	i.wasHeld = false
	if !i.d.cfg.DisableThrottle && start < i.holdUntil {
		start = i.holdUntil
		i.wasHeld = true
	}
	i.pending = true
	i.pendingAt = start
	i.d.sim.AtArg(start, runSPF, i)
}

// runSPF is the sim.ArgEvent of an instance's SPF timer: it computes routes
// and schedules their FIB install.
func runSPF(now sim.Time, arg any) {
	i := arg.(*Instance)
	i.pending = false
	if i.down {
		return // crashed between trigger and timer
	}
	if wait := now.Sub(i.triggerAt); i.triggerAt > 0 && wait > i.maxWait {
		i.maxWait = wait
	}
	i.triggerAt = 0
	if !i.d.cfg.DisableThrottle {
		if i.wasHeld {
			i.curHold *= 2
			if i.curHold > i.d.cfg.SPFHoldMax {
				i.curHold = i.d.cfg.SPFHoldMax
			}
		} else {
			i.curHold = i.d.cfg.SPFHoldInitial
		}
		i.holdUntil = now.Add(i.curHold)
	}
	i.spfRuns++
	i.lastSPFAt = now
	list := &i.out
	if len(i.installs) > 0 {
		list = &routeList{} // i.out may still be waiting for its install
	}
	i.installs = append(i.installs, i.computeRoutes(list))
	i.d.sim.AfterArg(i.d.cfg.FIBUpdateDelay, installPending, i)
	if i.d.onSPF != nil {
		i.d.onSPF(now, i.node)
	}
}

// installPending is the sim.ArgEvent of a delayed FIB install: it lands the
// instance's oldest pending route list. Last-writer-wins is correct:
// installs are scheduled in SPF order, and each delta diffs against what
// actually landed last. A crash between SPF and install loses the update,
// as a real switch would.
func installPending(at sim.Time, arg any) {
	i := arg.(*Instance)
	routes := i.installs[0]
	last := len(i.installs) - 1
	copy(i.installs, i.installs[1:])
	i.installs[last] = nil
	i.installs = i.installs[:last]
	if i.down {
		return
	}
	i.install(routes)
}

// install lands a computed route set in the forwarding table. It is always
// a ReplaceSource: the table diffs the list against what it holds and
// touches only the changed prefixes, so no copy of the last list is kept
// here. The counters tell two situations apart: full counts an install
// into a table of unknown contents (the first after a crash or restart,
// or without a Bootstrap before it), delta the rest.
func (i *Instance) install(routes []fib.Route) {
	_ = i.d.nw.Table(i.node).ReplaceSource(fib.OSPF, routes) // emitRoutes lists 1..64 hops per route: nothing to reject
	if i.installedValid {
		i.deltaInstalls++
	} else {
		i.fullInstalls++
	}
	i.installedValid = true
}

// SPFRuns returns how many SPF computations this instance performed.
func (i *Instance) SPFRuns() int { return i.spfRuns }

// MaxSPFWait returns the longest observed trigger→run wait, showing the
// throttle backoff the paper blames for 9 s request delays.
func (i *Instance) MaxSPFWait() time.Duration { return i.maxWait }

// LSDBSize returns the number of LSAs held.
func (i *Instance) LSDBSize() int {
	n := 0
	for _, lsa := range i.lsdb {
		if lsa != nil {
			n++
		}
	}
	return n
}
