// Package bgp implements a simplified eBGP control plane for the paper's
// §V "Other Distributed Routing Schemes" discussion: production DCNs often
// run BGP instead of OSPF (every switch its own AS, one session per link,
// multipath over equal-length AS paths), and BGP recovers from downward
// failures just as slowly — withdrawals and updates crawl hop by hop,
// gated per neighbor by the MRAI timer ([13] Fabrikant et al.).
//
// F²Tree's backup routes are protocol-agnostic: they sit in the FIB under
// whatever the protocol installs, so the same 60 ms local reroute bridges
// BGP convergence too. See TestF2TreeFastRerouteUnderBGP.
package bgp

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config carries the protocol timers.
type Config struct {
	// MRAI is the per-session minimum route advertisement interval. The
	// Internet default is 30 s; data centers tune it down but rarely to
	// zero. Convergence takes O(path-exploration depth × MRAI).
	MRAI time.Duration
	// ProcDelay is the per-update processing + propagation delay.
	ProcDelay time.Duration
	// FIBUpdateDelay is the best-path → forwarding-table install delay.
	FIBUpdateDelay time.Duration
	// GracefulRestart enables RFC 4724-style helper behavior: when a
	// session drops, routes learned over it are retained as stale for
	// RestartTime instead of withdrawn, and flushed only if the peer does
	// not come back and re-sync (End-of-RIB) in time.
	GracefulRestart bool
	// RestartTime is how long stale routes are retained at full
	// preference (default 2 s).
	RestartTime time.Duration
	// LongLived adds LLGR (draft-uttaro-idr-bgp-persistence) semantics:
	// at RestartTime expiry, stale routes are depreferenced — used only
	// when no fresh route exists — and kept for LLGRStaleTime more before
	// the flush.
	LongLived bool
	// LLGRStaleTime is the depreferenced retention window (default 30 s).
	LLGRStaleTime time.Duration
}

// DefaultConfig uses DC-tuned values.
func DefaultConfig() Config {
	return Config{
		MRAI:           200 * time.Millisecond,
		ProcDelay:      time.Millisecond,
		FIBUpdateDelay: 10 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MRAI == 0 {
		c.MRAI = d.MRAI
	}
	if c.ProcDelay == 0 {
		c.ProcDelay = d.ProcDelay
	}
	if c.FIBUpdateDelay == 0 {
		c.FIBUpdateDelay = d.FIBUpdateDelay
	}
	if c.RestartTime == 0 {
		c.RestartTime = 2 * time.Second
	}
	if c.LLGRStaleTime == 0 {
		c.LLGRStaleTime = 30 * time.Second
	}
	return c
}

// asPath is an AS path as an immutable shared list: node is the advertiser,
// next the path it selected, n the number of hops from here to the origin
// (the origin's own path has n == 1 and next == nil). A speaker allocates
// the path it offers once per best-path change; every UPDATE carrying it
// and every Adj-RIB-In entry keeping it point at that one value, so nobody
// may write to a path after it is built.
type asPath struct {
	node topo.NodeID
	n    int32
	next *asPath
}

func (p *asPath) contains(n topo.NodeID) bool {
	for ; p != nil; p = p.next {
		if p.node == n {
			return true
		}
	}
	return false
}

// prefixSet is a set of prefix ordinals (Domain.prefixes indices). Walking
// the bits upward yields the prefixes in prefixLess order. The nil set is
// empty and may be read but not added to.
type prefixSet []uint64

func (s prefixSet) has(p int32) bool { return int(p>>6) < len(s) && s[p>>6]&(1<<(p&63)) != 0 }
func (s prefixSet) add(p int32)      { s[p>>6] |= 1 << (p & 63) }

func (s prefixSet) remove(p int32) {
	if int(p>>6) < len(s) {
		s[p>>6] &^= 1 << (p & 63)
	}
}

func (s prefixSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// appendTo appends the members to dst in ascending order.
func (s prefixSet) appendTo(dst []int32) []int32 {
	for k, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(k<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// advert is one entry of an UPDATE: the path the advertiser offers for the
// prefix (path.node is the advertiser), or nil for a withdrawal. An UPDATE
// lists its announcements before its withdrawals, each in prefix order.
type advert struct {
	prefix int32
	path   *asPath
}

// update is one UPDATE in flight from a speaker over session s. Records
// come from Domain.updates and return there when the peer's receive
// returns (or at once if the wire died): receive copies the path pointers
// it keeps and never retains routes.
type update struct {
	from   *Instance
	s      *session
	routes []advert
	eor    bool
}

// grTimer is a session's GR or LLGR expiry: the epoch it was armed in,
// which any later down/up cycle invalidates. Records come from
// Domain.timers and return there when the timer ends.
type grTimer struct {
	s     *session
	epoch int
}

// session is per-link eBGP state.
type session struct {
	link topo.LinkID
	idx  int // position in Instance.sessions: the Adj-RIB-In column and hop-mask bit
	// peer and peerIdx name the far end: peer.sessions[peerIdx] is this
	// link's session there.
	peer    *Instance
	peerIdx int
	hop     fib.NextHop
	up      bool

	mraiUntil sim.Time
	scheduled bool
	// pending marks prefixes whose current best must be (re)advertised or
	// withdrawn when MRAI allows.
	pending prefixSet

	// Graceful-restart helper state. While the session is down with
	// retained=true, the routes learned over it stay in ribIn marked stale
	// instead of being withdrawn; stale tracks which prefixes a
	// re-established peer has not yet refreshed. grEpoch invalidates
	// expiry timers across down/up cycles.
	retained bool
	stale    prefixSet
	// staleSet is stale's storage, kept across GR cycles: stale is either
	// nil or staleSet.
	staleSet      prefixSet
	depreferenced bool
	grEpoch       int
	// eorPending makes the next flush carry the End-of-RIB marker (set
	// when the session (re-)establishes under GR).
	eorPending bool
}

// remote returns the far end's session for the same link.
func (s *session) remote() *session { return &s.peer.sessions[s.peerIdx] }

// speaker returns the instance the session belongs to.
func (s *session) speaker() *Instance { return s.remote().peer }

// best is a selected route for a prefix; the zero value means no route.
type best struct {
	// offer is the path advertised onward: this speaker prepended to the
	// representative path (offer.next; nil for an originated prefix).
	offer *asPath
	// hops is the ECMP next-hop set over all tied sessions: bit k names
	// sessions[k], so ascending bits are link order. Domain.Bootstrap
	// rejects speakers with more than hopMaskSessions sessions.
	hops    uint64
	pathLen int32
	// originated marks locally sourced prefixes (ToR subnets).
	originated bool
}

const hopMaskSessions = 64

// Instance is a per-switch BGP speaker.
type Instance struct {
	d    *Domain
	node topo.NodeID

	// sessions are in ascending LinkID order: the order every per-session
	// walk (advertising, selection, hop lists) takes.
	sessions []session
	// ribIn[prefix*len(sessions)+session] is the path learned over that
	// session, or nil.
	ribIn  []*asPath
	locRib []best // by prefix ordinal

	// down marks a crashed speaker (SetNodeDown): it processes nothing and
	// rewrites no FIB until restart — the switch's data plane keeps
	// forwarding on whatever FIB the speaker last installed
	// (persist-on-crash).
	down bool

	fibPending bool
	updatesRx  int
}

// Domain runs one instance per switch.
type Domain struct {
	sim  *sim.Simulator
	nw   *network.Network
	topo *topo.Topology
	cfg  Config

	instances []*Instance // by NodeID; nil for hosts and pruned nodes
	// prefixes are the fabric's ToR subnets in prefixLess order; a prefix
	// is its index here (its ordinal) everywhere else in the package.
	prefixes []netaddr.Prefix
	ordinals map[netaddr.Prefix]int32

	// bootstrapping replaces timers and messages by bootQueue: a FIFO of
	// best-path changes, each delivered synchronously to all the speaker's
	// sessions in link order — the order per-session UPDATEs would be sent.
	bootstrapping bool
	bootQueue     []announcement

	// Scratch shared by the domain's instances: the prefix list of the
	// running receive/flush/session teardown, and reselect's per-prefix
	// generation stamps (seen[p] == gen: already reselected in this pass).
	ords []int32
	seen []uint64
	gen  uint64

	// Pools and the FIB rendering every speaker writes into: routes()
	// returns routeBuf cut from hopBuf, valid until its next call
	// (fib.Table.ReplaceSource copies what it keeps). updates needs no
	// poison: deliverUpdate leaves a released record's pointers nil.
	updates  sim.FreeList[update]
	timers   sim.FreeList[grTimer]
	routeBuf []fib.Route
	hopBuf   []fib.NextHop
}

// announcement is a queued bootstrap best-path change: speaker from (a
// NodeID) now offers path (nil: withdraws) for the prefix.
type announcement struct {
	from   int32
	prefix int32
	path   *asPath
}

// NewDomain attaches BGP speakers to every switch.
func NewDomain(nw *network.Network, cfg Config) *Domain {
	d := &Domain{
		sim:       nw.Sim(),
		nw:        nw,
		topo:      nw.Topology(),
		cfg:       cfg.withDefaults(),
		instances: make([]*Instance, len(nw.Topology().Nodes)),
		ordinals:  make(map[netaddr.Prefix]int32),
		timers:    sim.NewFreeList(poisonGRTimer),
	}
	live := d.topo.LiveNodes()
	for _, id := range live {
		if nd := d.topo.Node(id); nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
			d.prefixes = append(d.prefixes, nd.Subnet)
		}
	}
	sort.Slice(d.prefixes, func(a, b int) bool { return prefixLess(d.prefixes[a], d.prefixes[b]) })
	d.prefixes = slices.Compact(d.prefixes) // the ToRs of a dual-ToR rack share a subnet
	for k, p := range d.prefixes {
		d.ordinals[p] = int32(k)
	}
	d.seen = make([]uint64, len(d.prefixes))
	words := (len(d.prefixes) + 63) / 64
	for _, id := range live {
		if d.topo.Node(id).Kind == topo.Host {
			continue
		}
		inst := &Instance{d: d, node: id, locRib: make([]best, len(d.prefixes))}
		for _, l := range d.topo.LinksOf(id) {
			other, ok := l.Other(id)
			if !ok || d.topo.Node(other).Kind == topo.Host {
				continue
			}
			port, _ := l.PortOf(id)
			inst.sessions = append(inst.sessions, session{
				link: l.ID, up: true, pending: make(prefixSet, words),
				hop: fib.NextHop{Port: port, Via: d.topo.Node(other).Addr},
			})
		}
		sort.Slice(inst.sessions, func(a, b int) bool { return inst.sessions[a].link < inst.sessions[b].link })
		inst.ribIn = make([]*asPath, len(d.prefixes)*len(inst.sessions))
		d.instances[id] = inst
	}
	for _, inst := range d.instances {
		if inst == nil {
			continue
		}
		for k := range inst.sessions {
			s := &inst.sessions[k]
			other, _ := d.topo.Link(s.link).Other(inst.node)
			s.idx, s.peer = k, d.instances[other]
			s.peerIdx = sort.Search(len(s.peer.sessions), func(j int) bool { return s.peer.sessions[j].link >= s.link })
		}
	}
	nw.OnPortState(d.portStateChanged)
	return d
}

// Instance returns a switch's speaker, or nil.
func (d *Domain) Instance(node topo.NodeID) *Instance {
	if node < 0 || int(node) >= len(d.instances) {
		return nil
	}
	return d.instances[node]
}

// UpdatesReceived returns how many UPDATE messages the instance processed
// after bootstrap (convergence-traffic diagnostic).
func (i *Instance) UpdatesReceived() int { return i.updatesRx }

// Bootstrap originates every ToR subnet and pumps updates synchronously
// (no MRAI, no delays) until the protocol converges, then installs every
// FIB — a network that finished initial convergence before the experiment.
func (d *Domain) Bootstrap() error {
	for _, inst := range d.instances {
		if inst != nil && len(inst.sessions) > hopMaskSessions {
			return fmt.Errorf("bgp: bootstrap %s: %d sessions, next-hop sets name at most %d",
				d.topo.Node(inst.node).Name, len(inst.sessions), hopMaskSessions)
		}
	}
	d.bootstrapping = true
	// NodeID order: origination order decides the synchronous pump's
	// message order, which decides the converged ribIn contents.
	for _, inst := range d.instances {
		if inst == nil {
			continue
		}
		if nd := d.topo.Node(inst.node); nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
			inst.originate(nd.Subnet)
		}
	}
	// The pump drains one generation while the announcements it causes
	// queue in the other buffer: delivery stays FIFO, and memory follows
	// the queue's length rather than every announcement of the run.
	var spare []announcement
	for len(d.bootQueue) > 0 {
		queue := d.bootQueue
		d.bootQueue = spare[:0]
		for _, a := range queue {
			from := d.instances[a.from]
			one := [1]advert{{prefix: a.prefix, path: a.path}}
			for k := range from.sessions {
				if s := &from.sessions[k]; s.up {
					s.peer.receive(0, s.peerIdx, one[:], false)
				} else {
					s.pending.add(a.prefix) // owed when the session establishes
				}
			}
		}
		spare = queue
	}
	d.bootQueue = nil
	d.bootstrapping = false
	for _, inst := range d.instances {
		if inst == nil {
			continue
		}
		if err := d.nw.Table(inst.node).ReplaceSource(fib.BGP, inst.routes()); err != nil {
			return fmt.Errorf("bgp: bootstrap %s: %w", d.topo.Node(inst.node).Name, err)
		}
		inst.fibPending = false
		inst.updatesRx = 0
	}
	return nil
}

// portStateChanged tears down or re-establishes the session on that port.
func (d *Domain) portStateChanged(now sim.Time, node topo.NodeID, port int, up bool) {
	inst := d.Instance(node)
	if inst == nil || inst.down {
		return
	}
	for k := range inst.sessions {
		s := &inst.sessions[k]
		if s.hop.Port != port {
			continue
		}
		if s.up == up {
			return
		}
		if up {
			inst.sessionUp(now, s)
		} else {
			inst.sessionDown(now, s)
		}
		return
	}
}

// sessionUp (re-)establishes a session: the full table is re-advertised,
// followed under GR by an End-of-RIB marker. Stale routes the helper
// retained stay until the peer's EOR flushes the unrefreshed remainder.
func (i *Instance) sessionUp(now sim.Time, s *session) {
	s.up = true
	s.grEpoch++ // pause any running stale-expiry timer
	if i.d.cfg.GracefulRestart {
		s.eorPending = true
	}
	for p := range i.locRib {
		if i.locRib[p].offer != nil {
			s.pending.add(int32(p))
		}
	}
	i.kick(now, s)
}

// learned returns the Adj-RIB-In slot of prefix p over session s.
func (i *Instance) learned(p int32, s *session) **asPath {
	return &i.ribIn[int(p)*len(i.sessions)+s.idx]
}

// dropLearned removes what session s holds for each of the prefixes and
// reselects those it held something for.
func (i *Instance) dropLearned(now sim.Time, s *session, prefixes []int32) {
	affected := prefixes[:0]
	for _, p := range prefixes {
		if slot := i.learned(p, s); *slot != nil {
			*slot = nil
			affected = append(affected, p)
		}
	}
	i.reselect(now, affected)
}

// allPrefixes fills the domain's scratch list with every ordinal.
func (d *Domain) allPrefixes() []int32 {
	d.ords = d.ords[:0]
	for p := range d.prefixes {
		d.ords = append(d.ords, int32(p))
	}
	return d.ords
}

// sessionDown tears a session down: without GR everything learned over it
// is implicitly withdrawn; a GR helper retains the routes as stale.
func (i *Instance) sessionDown(now sim.Time, s *session) {
	s.up = false
	if i.d.cfg.GracefulRestart {
		i.retainStale(now, s)
		return
	}
	i.dropLearned(now, s, i.d.allPrefixes())
}

// retainStale is the GR helper's down path: mark everything learned over
// the session stale, keep forwarding on it, and arm the expiry timer. At
// RestartTime the routes are flushed — or, under LLGR, depreferenced and
// kept for LLGRStaleTime more.
func (i *Instance) retainStale(now sim.Time, s *session) {
	d := i.d
	s.retained = true
	s.depreferenced = false
	s.grEpoch++
	if s.staleSet == nil {
		s.staleSet = make(prefixSet, len(s.pending))
	}
	s.stale = s.staleSet
	clear(s.stale)
	for p := range d.prefixes {
		if *i.learned(int32(p), s) != nil {
			s.stale.add(int32(p))
		}
	}
	t := d.timers.Get()
	t.s, t.epoch = s, s.grEpoch
	d.sim.AtArg(now.Add(d.cfg.RestartTime), grExpire, t)
}

// live reports whether the GR timer still guards the retention it was
// armed for.
func (t *grTimer) live() bool {
	return t.s.grEpoch == t.epoch && t.s.retained && !t.s.speaker().down
}

// poisonGRTimer marks a released timer with an epoch no session reaches.
func poisonGRTimer(t *grTimer) { t.s, t.epoch = nil, -1 }

// grExpire is the sim.ArgEvent of the RestartTime expiry: flush the stale
// routes or, under LLGR, depreference them and arm the LLGR expiry.
func grExpire(now sim.Time, arg any) {
	t := arg.(*grTimer)
	s := t.s
	i := s.speaker()
	switch {
	case !t.live():
		i.d.timers.Put(t)
	case !i.d.cfg.LongLived:
		i.d.timers.Put(t)
		i.flushStale(now, s)
	default:
		// LLGR: keep the stale routes as a last resort.
		s.depreferenced = true
		i.reselectRetained(now, s)
		i.d.sim.AtArg(now.Add(i.d.cfg.LLGRStaleTime), llgrExpire, t)
	}
}

// llgrExpire is the sim.ArgEvent of the LLGR expiry: flush what is still
// stale.
func llgrExpire(now sim.Time, arg any) {
	t := arg.(*grTimer)
	s, live := t.s, t.live()
	i := s.speaker()
	i.d.timers.Put(t)
	if live {
		i.flushStale(now, s)
	}
}

// flushStale drops every route the session still holds stale and clears
// the helper state (GR timer expiry, or the peer's EOR after re-sync).
func (i *Instance) flushStale(now sim.Time, s *session) {
	i.d.ords = s.stale.appendTo(i.d.ords[:0])
	s.stale = nil // staleSet keeps the storage
	s.retained = false
	s.depreferenced = false
	i.dropLearned(now, s, i.d.ords)
}

// reselectRetained re-runs selection for the session's stale prefixes
// (their preference tier just changed).
func (i *Instance) reselectRetained(now sim.Time, s *session) {
	i.d.ords = s.stale.appendTo(i.d.ords[:0])
	i.reselect(now, i.d.ords)
}

// originate injects a locally sourced prefix.
func (i *Instance) originate(p netaddr.Prefix) {
	ord := i.d.ordinals[p]
	i.locRib[ord] = best{originated: true, offer: &asPath{node: i.node, n: 1}}
	i.announce(0, ord)
}

// announce tells every neighbor that the best path for p changed. Sessions
// go in link order: kick order decides bootstrap pump order and, live, the
// event-queue tie-break sequence.
func (i *Instance) announce(now sim.Time, p int32) {
	if i.d.bootstrapping {
		i.d.bootQueue = append(i.d.bootQueue, announcement{from: int32(i.node), prefix: p, path: i.locRib[p].offer})
		return
	}
	for k := range i.sessions {
		s := &i.sessions[k]
		s.pending.add(p)
		i.kick(now, s)
	}
}

// receive processes an UPDATE arriving over session `from`. It copies the
// path pointers it keeps and never retains routes: the caller owns the list.
func (i *Instance) receive(now sim.Time, from int, routes []advert, eor bool) {
	if i.down {
		return
	}
	i.updatesRx++
	s := &i.sessions[from]
	if !s.up {
		return
	}
	affected := i.d.ords[:0]
	for _, a := range routes {
		s.stale.remove(a.prefix) // refreshed by the restarted peer
		path := a.path
		if path.contains(i.node) {
			// Loop prevention. An UPDATE replaces the neighbor's previous
			// announcement (RFC 4271): a rejected path implicitly
			// withdraws whatever this session advertised before —
			// otherwise a stale pre-failure route lingers and forwarding
			// loops form.
			path = nil
		}
		if slot := i.learned(a.prefix, s); path != nil || *slot != nil {
			*slot = path
			if !i.keepsBest(a.prefix, from, path) {
				affected = append(affected, a.prefix)
			}
		}
	}
	i.d.ords = affected
	i.reselect(now, affected)
	if eor && s.retained {
		// Re-sync complete: whatever the peer did not refresh is gone.
		i.flushStale(now, s)
	}
}

// keepsBest reports, while bootstrapping, that session k now holding path
// (nil: nothing) for p cannot move p's best path: p has a route, k is not
// one of its hops, and path is absent or longer. selectBest would return
// the same length, hop set and representative, so reselect would change
// nothing. Live, GR's stale and depreferenced tiers make selection depend
// on more than the slot, and the answer is always false.
func (i *Instance) keepsBest(p int32, k int, path *asPath) bool {
	b := &i.locRib[p]
	return i.d.bootstrapping && b.hops != 0 && b.hops&(1<<k) == 0 && (path == nil || path.n > b.pathLen)
}

// reselect recomputes best paths for the prefixes (a repeated prefix counts
// once, where it first appears) and floods changes. A best path whose
// length and hop set are unchanged keeps its representative path, and so
// the path it offers, even if the session that supplied it now holds
// another: the comparison is blind to the representative path. While
// bootstrapping, a change that keeps the length and the representative
// path (the same *asPath) alters only the hop set: the speaker keeps the
// path it offers, a neighbour would receive one with the same content, and
// nothing is announced. Only the FIB sees it.
func (i *Instance) reselect(now sim.Time, prefixes []int32) {
	d := i.d
	d.gen++
	changed := false
	for _, p := range prefixes {
		old := &i.locRib[p]
		if d.seen[p] == d.gen || old.originated { // locally sourced beats everything
			continue
		}
		d.seen[p] = d.gen
		repr, hops := i.selectBest(p)
		nb := best{hops: hops}
		if repr != nil {
			nb.pathLen = repr.n
		}
		if old.pathLen == nb.pathLen && old.hops == nb.hops {
			continue
		}
		changed = true
		// Equal lengths are nonzero here (two missing routes compare equal
		// above), so old has an offer.
		if d.bootstrapping && old.pathLen == nb.pathLen && old.offer.next == repr {
			old.hops = hops
			continue
		}
		if repr != nil {
			nb.offer = &asPath{node: i.node, n: repr.n + 1, next: repr}
		}
		*old = nb
		i.announce(now, p)
	}
	if changed {
		i.scheduleFIB(now)
	}
}

// selectBest picks the multipath set of shortest AS paths and its
// representative (the first tied session's path), or nil and no hops.
// Candidates are routes over up sessions plus, under GR, routes a helper
// retains for a down peer. LLGR-depreferenced stale routes form a second
// tier used only when no fresh route exists.
func (i *Instance) selectBest(p int32) (repr *asPath, hops uint64) {
	row := i.ribIn[int(p)*len(i.sessions):][:len(i.sessions)]
	for _, wantDepref := range [2]bool{false, true} {
		for k, path := range row {
			s := &i.sessions[k]
			if path == nil || (!s.up && !s.retained) || (s.depreferenced && s.stale.has(p)) != wantDepref {
				continue
			}
			switch {
			case repr == nil || path.n < repr.n:
				repr, hops = path, 1<<k
			case path.n == repr.n:
				hops |= 1 << k
			}
		}
		if repr != nil {
			return repr, hops
		}
	}
	return nil, 0
}

// kick arranges for the session's pending prefixes to be flushed, honoring
// MRAI.
func (i *Instance) kick(now sim.Time, s *session) {
	if s.scheduled || (s.pending.empty() && !s.eorPending) || !s.up {
		return
	}
	at := now
	if s.mraiUntil > at {
		at = s.mraiUntil
	}
	s.scheduled = true
	i.d.sim.AtArg(at, flushSession, s)
}

// flushSession is the sim.ArgEvent of a session's MRAI-gated flush.
func flushSession(now sim.Time, arg any) {
	s := arg.(*session)
	s.scheduled = false
	s.speaker().flush(now, s)
}

// flush sends one UPDATE carrying every pending prefix.
func (i *Instance) flush(now sim.Time, s *session) {
	if (s.pending.empty() && !s.eorPending) || !s.up {
		return
	}
	d := i.d
	d.ords = s.pending.appendTo(d.ords[:0])
	clear(s.pending)
	u := d.updates.Get()
	u.from, u.s = i, s
	u.routes = slices.Grow(u.routes, len(d.ords))
	for _, p := range d.ords {
		if offer := i.locRib[p].offer; offer != nil {
			u.routes = append(u.routes, advert{prefix: p, path: offer})
		}
	}
	for _, p := range d.ords {
		if i.locRib[p].offer == nil {
			u.routes = append(u.routes, advert{prefix: p})
		}
	}
	// The flush drained the full post-establishment advertisement; the
	// End-of-RIB marker lets the helper flush unrefreshed stale routes.
	u.eor = s.eorPending
	s.eorPending = false
	s.mraiUntil = now.Add(d.cfg.MRAI)
	d.sim.AfterArg(d.cfg.ProcDelay, deliverUpdate, u)
}

// deliverUpdate is the sim.ArgEvent of an UPDATE: the peer receives it
// unless the wire died in flight, then the record goes back to the pool.
func deliverUpdate(at sim.Time, arg any) {
	u := arg.(*update)
	i, s := u.from, u.s
	if i.d.nw.LinkDirUp(s.link, i.node) { // else lost on a dead wire
		s.peer.receive(at, s.peerIdx, u.routes, u.eor)
	}
	clear(u.routes) // the pool must not pin paths nobody offers any more
	u.from, u.s, u.routes = nil, nil, u.routes[:0]
	i.d.updates.Put(u)
}

// scheduleFIB coalesces FIB rewrites.
func (i *Instance) scheduleFIB(now sim.Time) {
	if i.fibPending || i.d.bootstrapping {
		return
	}
	i.fibPending = true
	i.d.sim.AfterArg(i.d.cfg.FIBUpdateDelay, installFIB, i)
}

// installFIB is the sim.ArgEvent of a coalesced FIB rewrite.
func installFIB(_ sim.Time, arg any) {
	i := arg.(*Instance)
	i.fibPending = false
	if i.down {
		return // crashed: the last installed FIB persists untouched
	}
	_ = i.d.nw.Table(i.node).ReplaceSource(fib.BGP, i.routes())
}

// routes renders locRib as FIB routes (originated prefixes excluded: the
// ToR reaches its own subnet via connected /32s) into the domain's
// rendering buffers: the list is valid until the next call. Every route's
// NextHops is cut from one array.
func (i *Instance) routes() []fib.Route {
	d := i.d
	nhops := 0
	for _, b := range i.locRib {
		nhops += bits.OnesCount64(b.hops)
	}
	if cap(d.hopBuf) < nhops {
		d.hopBuf = make([]fib.NextHop, 0, nhops)
	}
	out, hops := d.routeBuf[:0], d.hopBuf[:0]
	for p, b := range i.locRib {
		if b.hops == 0 {
			continue
		}
		from := len(hops)
		for m := b.hops; m != 0; m &= m - 1 {
			hops = append(hops, i.sessions[bits.TrailingZeros64(m)].hop)
		}
		out = append(out, fib.Route{Prefix: d.prefixes[p], Source: fib.BGP, NextHops: hops[from:len(hops):len(hops)]})
	}
	d.routeBuf = out
	return out
}

// prefixLess totally orders prefixes by (address, length). Sorting by
// address alone is not enough: a prefix and its covering prefix share the
// masked address, and a tie there would reintroduce map-order dependence.
func prefixLess(a, b netaddr.Prefix) bool {
	if a.Addr() != b.Addr() {
		return a.Addr() < b.Addr()
	}
	return a.Bits() < b.Bits()
}
