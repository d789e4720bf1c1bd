package ospf

import (
	"math/bits"
	"slices"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/topo"
)

// hopSetPorts is how many ports a first-hop set can name; Domain.Bootstrap
// rejects wider switches.
const hopSetPorts = topo.MaskPorts

// spfScratch is the working memory of an SPF run. The Domain owns it and
// its instances share it: the simulation is single-threaded, and nothing
// but the routes a run emits outlives it. Everything per origin is indexed
// by switch ordinal.
//
// The adjacency rows and the prefix table are a pure function of the LSDB
// they were built from: LSAs never change once originated, and the two-way
// check reads nothing but them. The scratch keeps that LSDB as a snapshot,
// and a run whose LSDB holds the same LSA pointers reuses both.
type spfScratch struct {
	// lsdb is the snapshot: the LSA pointers graph and the prefix table
	// were built from (all nil, with empty rows and table, before the
	// first build).
	lsdb []*LSA
	// graph is the two-way-checked adjacency row of every origin, each
	// sorted by (To, Link): the LSA's own row, shared by every instance,
	// unless the check filtered it; then it is cut from rows.
	graph [][]topo.Edge
	rows  []topo.Edge // filtered rows checkedRow builds, back to back

	// The prefix table: prefixes holds the snapshot's distinct prefixes in
	// first-advertised order (ascending origin, then the LSA's order), and
	// prefixIDs[o] origin o's prefixes as indices into it, cut from ids.
	prefixes  []netaddr.Prefix
	prefixIDs [][]int32
	ids       []int32
	byPrefix  map[netaddr.Prefix]int32 // prefix → id, while the table is built

	// search holds the last search's distances (Dist) and first-hop port
	// sets (Mask), and its frontiers.
	search topo.Search

	// emitRoutes' state: one candidate per reached prefix, in first-seen
	// order, and per prefix id its index in cands plus one (0: not seen in
	// this run; emitRoutes zeroes what it set before it returns).
	cands []emitCand
	slot  []int32
}

// init sizes the scratch for n switches.
func (sc *spfScratch) init(n int) {
	sc.lsdb = make([]*LSA, n)
	sc.graph = make([][]topo.Edge, n)
	sc.prefixIDs = make([][]int32, n)
	sc.search.Dist = make([]int, n)
	sc.search.Mask = make([]uint64, n)
	sc.byPrefix = make(map[netaddr.Prefix]int32)
}

// computeRoutes runs the shortest-path computation over the LSDB and
// returns the ECMP routes to every advertised prefix, emitted into list.
// Links have unit cost (the paper's footnote 4), so Dijkstra reduces to BFS
// with equal-cost predecessor merging. An adjacency is used only if both
// routers advertise it over the same link (the OSPF two-way check), which
// keeps half-dead links out of the graph while detections race.
//
// Every run is a full search. Its rows and prefix table are rebuilt only
// when this router's LSDB holds other LSAs than the snapshot they were
// built from; most runs find the LSDB the previous run of some other
// router saw (DESIGN.md §13, "One graph per LSDB snapshot"). The SPF timer
// (200 ms) and the FIB delay (10 ms) are simulated time, so the host time
// a run takes shows in no result (DESIGN.md §13, "Delta-SPF").
func (i *Instance) computeRoutes(list *routeList) []fib.Route {
	if !slices.Equal(i.lsdb, i.d.scratch.lsdb) {
		i.buildGraph()
	}
	i.search()
	return i.emitRoutes(list)
}

// adjOK reports whether edge k of lsa, the LSA of origin from, passes the
// OSPF two-way check: whether the edge's far end advertises the same link
// back to from.
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

// buildGraph makes this router's LSDB the snapshot: it copies the LSA
// pointers and rebuilds every adjacency row and the prefix table from
// them. A row or id list cut from an arena stays valid when a later append
// moves the arena: the old array is not written again in this build.
func (i *Instance) buildGraph() {
	sc := &i.d.scratch
	copy(sc.lsdb, i.lsdb)
	sc.rows = sc.rows[:0]
	for o := range sc.graph {
		sc.graph[o] = i.checkedRow(topo.NodeID(o), &sc.rows)
	}
	clear(sc.byPrefix)
	sc.prefixes, sc.ids = sc.prefixes[:0], sc.ids[:0]
	for o, lsa := range i.lsdb {
		lo := len(sc.ids)
		if lsa != nil {
			for _, p := range lsa.Prefixes {
				id, seen := sc.byPrefix[p]
				if !seen {
					id = int32(len(sc.prefixes))
					sc.byPrefix[p] = id
					sc.prefixes = append(sc.prefixes, p)
				}
				sc.ids = append(sc.ids, id)
			}
		}
		sc.prefixIDs[o] = sc.ids[lo:len(sc.ids):len(sc.ids)]
	}
	sc.slot = slices.Grow(sc.slot[:0], len(sc.prefixes))[:len(sc.prefixes)] // all 0: emitRoutes zeroes what it sets
}

// search runs the graph kernel from this router over the adjacency rows:
// afterwards Dist[v] is v's distance and Mask[v] the set of local ports
// beginning some shortest path to v.
func (i *Instance) search() {
	sc := &i.d.scratch
	sc.search.Run(i.d.topo, sc.graph, i.ord, i.node)
}

// emitCand is a prefix's best origin so far: its distance and hop set.
type emitCand struct {
	id   int32 // index into the prefix table
	dist int
	hops uint64
}

// routeList is a route list and the array its routes' next hops are cut
// from, both reused from one emission to the next (fib.Table.ReplaceSource
// copies what it keeps).
type routeList struct {
	routes []fib.Route
	hops   []fib.NextHop
}

// emitRoutes emits one route per advertised prefix of every other
// reachable router, from the last search, into list, and returns the
// routes. They stay valid until list is emitted into again.
//
// A prefix may be advertised by more than one origin (dual-ToR racks
// anycast their shared subnet from both ToRs): the route keeps the
// minimum-distance origin's next hops, unioning hop sets when origins tie,
// so traffic prefers the nearer rack ToR and load-shares at equal cost.
// Routes come in the order their prefixes are first seen walking the
// reached origins upward; with single-origin prefixes that is exactly the
// historical per-origin list.
func (i *Instance) emitRoutes(list *routeList) []fib.Route {
	sc := &i.d.scratch
	cands := sc.cands[:0]
	for o, ids := range sc.prefixIDs {
		if len(ids) == 0 || topo.NodeID(o) == i.ord {
			continue
		}
		set := sc.search.Mask[o]
		if set == 0 {
			continue
		}
		d := sc.search.Dist[o]
		for _, id := range ids {
			at := sc.slot[id] - 1
			switch {
			case at < 0:
				sc.slot[id] = int32(len(cands)) + 1
				cands = append(cands, emitCand{id: id, dist: d, hops: set})
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
		sc.slot[c.id] = 0
		total += bits.OnesCount64(c.hops)
	}
	hops := slices.Grow(list.hops[:0], total) // every route's hops fit: no append below moves it
	routes := slices.Grow(list.routes[:0], len(cands))
	for _, c := range cands {
		lo := len(hops)
		for set := c.hops; set != 0; set &= set - 1 {
			hops = append(hops, i.hops[bits.TrailingZeros64(set)])
		}
		routes = append(routes, fib.Route{Prefix: sc.prefixes[c.id], Source: fib.OSPF, NextHops: hops[lo:len(hops):len(hops)]})
	}
	list.routes, list.hops = routes, hops
	return routes
}
