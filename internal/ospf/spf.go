package ospf

import (
	"math/bits"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/topo"
)

const (
	inf         = topo.Unreachable // distance of a node the last search did not reach
	hopSetPorts = topo.MaskPorts   // ports a first-hop set can name; Domain.Bootstrap rejects wider switches
)

// computeRoutes runs the shortest-path computation over the LSDB and
// returns the ECMP routes to every advertised prefix. Links have unit cost
// (the paper's footnote 4), so Dijkstra reduces to BFS with equal-cost
// predecessor merging. An adjacency is used only if both routers advertise
// it over the same link (the OSPF two-way check), which keeps half-dead
// links out of the graph while detections race.
//
// The steady state is incremental: a single-link LSA change repairs the
// cached shortest-path DAG (ispf.go) instead of recomputing it. Full BFS
// runs on the first computation, on structural changes the repair does not
// cover, and always under Config.FullSPF (the equivalence baseline).
func (i *Instance) computeRoutes() []fib.Route {
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
	return i.emitRoutes()
}

// adjOK reports whether the peer advertises the same link back — the OSPF
// two-way check. Edge presence is symmetric in the endpoint LSAs, which is
// what lets the incremental path treat directed-edge changes as whole-link
// changes.
func (i *Instance) adjOK(from, to topo.NodeID, link topo.LinkID) bool {
	peer := i.lsdb[to]
	if peer == nil {
		return false
	}
	for _, a := range peer.Adjacencies { // sorted by (Neighbor, Link)
		if a.Neighbor > from {
			break
		}
		if a.Neighbor == from && a.Link == link {
			return true
		}
	}
	return false
}

// buildRow appends origin's adjacency row — its two-way-checked out-edges
// — to row. LSAs are born sorted by (neighbor, link), so the row is too.
func (i *Instance) buildRow(origin topo.NodeID, row []topo.Edge) []topo.Edge {
	lsa := i.lsdb[origin]
	if lsa == nil {
		return row
	}
	for _, a := range lsa.Adjacencies {
		if i.adjOK(origin, a.Neighbor, a.Link) {
			row = append(row, topo.Edge{To: a.Neighbor, Link: a.Link})
		}
	}
	return row
}

// buildGraph rebuilds every adjacency row from the LSDB into graph, reusing
// the rows' storage.
func (i *Instance) buildGraph(graph [][]topo.Edge) {
	for o := range graph {
		graph[o] = i.buildRow(topo.NodeID(o), graph[o][:0])
	}
}

// search runs the graph kernel from this router over graph into dist and
// nh: nh[v] is the set of local ports beginning some shortest path to v.
func (i *Instance) search(graph [][]topo.Edge, dist []int, nh []uint64) {
	s := &i.d.scratch.search
	s.Dist, s.Mask = dist, nh
	s.Run(i.d.topo, graph, i.node)
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
	i.buildGraph(i.spf.graph)
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

// emitRoutes emits one route per advertised prefix of every other
// reachable router, from the current shortest-path state.
//
// A prefix may be advertised by more than one origin (dual-ToR racks
// anycast their shared subnet from both ToRs): the route keeps the
// minimum-distance origin's next hops, unioning hop sets when origins tie,
// so traffic prefers the nearer rack ToR and load-shares at equal cost.
// With single-origin prefixes the emission is exactly the historical
// per-origin list.
//
// Every route's NextHops is cut from one backing array (fib.Table.Add
// copies what it keeps), so a run allocates the route list and that array.
func (i *Instance) emitRoutes() []fib.Route {
	sc := &i.d.scratch
	cands := sc.cands[:0]
	clear(sc.byPrefix)
	for o, lsa := range i.lsdb {
		if lsa == nil || topo.NodeID(o) == i.node {
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
	hops := make([]fib.NextHop, 0, total)
	routes := make([]fib.Route, len(cands))
	for k, c := range cands {
		lo := len(hops)
		for set := c.hops; set != 0; set &= set - 1 {
			hops = append(hops, i.hops[bits.TrailingZeros64(set)])
		}
		routes[k] = fib.Route{Prefix: c.prefix, Source: fib.OSPF, NextHops: hops[lo:len(hops):len(hops)]}
	}
	return routes
}
