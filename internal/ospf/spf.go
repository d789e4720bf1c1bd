package ospf

import (
	"math/bits"
	"slices"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/topo"
)

const (
	inf         = topo.Unreachable // distance of a node the last search did not reach
	hopSetPorts = topo.MaskPorts   // ports a first-hop set can name; Domain.Bootstrap rejects wider switches
)

// computeRoutes runs the shortest-path computation over the LSDB and
// returns the ECMP routes to every advertised prefix, emitted into list.
// Links have unit cost (the paper's footnote 4), so Dijkstra reduces to BFS
// with equal-cost predecessor merging. An adjacency is used only if both
// routers advertise it over the same link (the OSPF two-way check), which
// keeps half-dead links out of the graph while detections race.
//
// The steady state is incremental: a single-link LSA change repairs the
// cached shortest-path DAG (ispf.go) instead of recomputing it. Full BFS
// runs on the first computation, on structural changes the repair does not
// cover, and always under Config.FullSPF (the equivalence baseline).
func (i *Instance) computeRoutes(list *routeList) []fib.Route {
	switch {
	case i.d.cfg.FullSPF || !i.spf.valid:
		i.computeFull()
	case i.computeIncremental():
		if i.d.selfCheck {
			i.verifySPF()
		}
	default:
		i.computeFull()
	}
	return i.emitRoutes(list)
}

// adjOK reports whether edge k of lsa, the LSA of origin from, passes the
// OSPF two-way check: whether the edge's far end advertises the same link
// back to from. Edge presence is symmetric in the endpoint LSAs, which is
// what lets the incremental path treat directed-edge changes as whole-link
// changes.
//
// The answer is a function of lsa and the far end's LSA alone, and neither
// changes once originated, so a pass is memoized in lsa.peer[k] under the
// far end's LSA pointer: every instance holding the same pair reuses the
// first one's scan. A failure is not memoized and scans every time.
func (i *Instance) adjOK(lsa *LSA, k int, from topo.NodeID) bool {
	e := lsa.row[k]
	peer := i.lsdb[e.To]
	if peer == nil {
		return false
	}
	if lsa.peer[k] == peer {
		return true
	}
	for _, b := range peer.edges(&i.d.sw) { // sorted by (To, Link)
		if b.To > from {
			break
		}
		if b.To == from && b.Link == e.Link {
			lsa.peer[k] = peer
			return true
		}
	}
	return false
}

// checkedRow returns origin o's adjacency row: the edges of its LSA that
// pass the two-way check. When all of them pass — always at bootstrap, and
// whenever no link is advertised by one end only — that is the LSA's own
// row; otherwise the passing edges are appended to *buf and the row is cut
// from there. Either way it is sorted by (To, Link).
func (i *Instance) checkedRow(o topo.NodeID, buf *[]topo.Edge) []topo.Edge {
	lsa := i.lsdb[o]
	if lsa == nil {
		return nil
	}
	edges := lsa.edges(&i.d.sw)
	for k := range edges {
		if i.adjOK(lsa, k, o) {
			continue
		}
		lo := len(*buf)
		*buf = append(*buf, edges[:k]...)
		for j := k + 1; j < len(edges); j++ {
			if i.adjOK(lsa, j, o) {
				*buf = append(*buf, edges[j])
			}
		}
		return (*buf)[lo:]
	}
	return edges
}

// setRow makes row, a checkedRow result, the adjacency row of origin o. A
// row holding every adjacency of o's LSA is shared as the LSA's own row; a
// filtered one is copied into storage the instance keeps for o, sized by
// the largest LSA of o it has filtered (never more than o's links).
func (i *Instance) setRow(o topo.NodeID, row []topo.Edge) {
	st := &i.spf
	var whole []topo.Edge
	if lsa := i.lsdb[o]; lsa != nil {
		whole = lsa.row
	}
	if len(row) == len(whole) {
		st.graph[o] = whole
		return
	}
	k := slices.IndexFunc(st.own, func(r ownRow) bool { return r.origin == o })
	if k < 0 {
		k = len(st.own)
		st.own = append(st.own, ownRow{origin: o})
	}
	r := &st.own[k]
	if cap(r.edges) < len(whole) {
		r.edges = make([]topo.Edge, 0, len(whole))
	}
	r.edges = append(r.edges[:0], row...)
	st.graph[o] = r.edges
}

// buildGraph rebuilds every adjacency row from the LSDB.
func (i *Instance) buildGraph() {
	sc := &i.d.scratch
	for o := range i.spf.graph {
		sc.rows = sc.rows[:0]
		i.setRow(topo.NodeID(o), i.checkedRow(topo.NodeID(o), &sc.rows))
	}
}

// search runs the graph kernel from this router over graph into dist and
// nh: nh[v] is the set of local ports beginning some shortest path to v.
func (i *Instance) search(graph [][]topo.Edge, dist []int, nh []uint64) {
	s := &i.d.scratch.search
	s.Dist, s.Mask = dist, nh
	s.Run(i.d.topo, graph, i.ord, i.node)
}

// portSet returns the one-port set of a directly attached link (empty if
// the link does not touch this router).
func (i *Instance) portSet(link topo.LinkID) uint64 {
	port, ok := i.d.topo.Link(link).PortOf(i.node)
	if !ok {
		return 0
	}
	return 1 << port
}

// computeFull rebuilds the shortest-path state from scratch.
func (i *Instance) computeFull() {
	i.buildGraph()
	i.searchFull()
}

// searchFull recomputes distances and first hops over the current adjacency
// rows and resets the incremental bookkeeping.
func (i *Instance) searchFull() {
	st := &i.spf
	i.search(st.graph, st.dist, st.nh)
	st.dirty = st.dirty[:0]
	st.valid = true
	st.fullRuns++
}

// emitCand is a prefix's best origin so far: its distance and hop set.
type emitCand struct {
	prefix netaddr.Prefix
	dist   int
	hops   uint64
}

// routeList is a route list and the array its routes' next hops are cut
// from, both reused from one emission to the next (fib.Table.ReplaceSource
// copies what it keeps).
type routeList struct {
	routes []fib.Route
	hops   []fib.NextHop
}

// emitRoutes emits one route per advertised prefix of every other
// reachable router, from the current shortest-path state, into list, and
// returns the routes. They stay valid until list is emitted into again.
//
// A prefix may be advertised by more than one origin (dual-ToR racks
// anycast their shared subnet from both ToRs): the route keeps the
// minimum-distance origin's next hops, unioning hop sets when origins tie,
// so traffic prefers the nearer rack ToR and load-shares at equal cost.
// With single-origin prefixes the emission is exactly the historical
// per-origin list.
func (i *Instance) emitRoutes(list *routeList) []fib.Route {
	sc := &i.d.scratch
	cands := sc.cands[:0]
	clear(sc.byPrefix)
	for o, lsa := range i.lsdb {
		if lsa == nil || topo.NodeID(o) == i.ord {
			continue
		}
		set := i.spf.nh[o]
		if set == 0 {
			continue
		}
		d := i.spf.dist[o]
		for _, p := range lsa.Prefixes {
			at, seen := sc.byPrefix[p]
			switch {
			case !seen:
				sc.byPrefix[p] = len(cands)
				cands = append(cands, emitCand{prefix: p, dist: d, hops: set})
			case d < cands[at].dist:
				cands[at].dist, cands[at].hops = d, set
			case d == cands[at].dist:
				cands[at].hops |= set
			}
		}
	}
	sc.cands = cands
	total := 0
	for _, c := range cands {
		total += bits.OnesCount64(c.hops)
	}
	hops := slices.Grow(list.hops[:0], total) // every route's hops fit: no append below moves it
	routes := slices.Grow(list.routes[:0], len(cands))
	for _, c := range cands {
		lo := len(hops)
		for set := c.hops; set != 0; set &= set - 1 {
			hops = append(hops, i.hops[bits.TrailingZeros64(set)])
		}
		routes = append(routes, fib.Route{Prefix: c.prefix, Source: fib.OSPF, NextHops: hops[lo:len(hops):len(hops)]})
	}
	list.routes, list.hops = routes, hops
	return routes
}
