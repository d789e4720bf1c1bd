package topo

import (
	"cmp"
	"slices"
)

// The graph kernel: the one unit-cost shortest-path search (links cost 1,
// the paper's footnote 4, so a level-synchronous BFS) behind OSPF's full
// SPF, the centralized controller, Analyze, CountShortestPaths, Validate
// and the chaos reachability oracle.

// Edge is one adjacency-row entry: the neighbor reached and the link used.
type Edge struct {
	To   NodeID
	Link LinkID
}

// Unreachable is the distance Search reports for a node it did not reach.
const Unreachable = int(^uint(0) >> 1)

// MaskPorts is the width of a first-hop port mask (bit p = local port p).
// Control planes refuse wider switches at bootstrap rather than silently
// lose the routes over their high ports.
const MaskPorts = 64

// Graph is a NodeID-indexed adjacency view: Rows[n] lists n's usable links
// sorted by (To, Link), every row cut from one arena that Build reuses.
type Graph struct {
	Rows  [][]Edge
	arena []Edge
}

// Build rebuilds g from t's live links for which live[link] holds (nil:
// all), leaving hosts and their links out unless hosts is set. Once g has
// been built over t, it allocates nothing.
func (g *Graph) Build(t *Topology, live []bool, hosts bool) {
	g.Rows = slices.Grow(g.Rows[:0], len(t.Nodes))[:len(t.Nodes)]
	arena := slices.Grow(g.arena[:0], 2*len(t.Links)) // two edges per link at most: no append below grows
	for n, ports := range t.ports {
		lo := len(arena)
		for _, l := range ports {
			if l == None || live != nil && !live[l] {
				continue
			}
			if to, _ := t.Links[l].Other(NodeID(n)); hosts || t.Nodes[n].Kind != Host && t.Nodes[to].Kind != Host {
				arena = append(arena, Edge{To: to, Link: l})
			}
		}
		g.Rows[n] = arena[lo:len(arena):len(arena)]
		slices.SortFunc(g.Rows[n], func(a, b Edge) int { return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Link, b.Link)) })
	}
	g.arena = arena
}

// Search is one single-source search's results and working memory, owned
// and reused by the caller; a search allocates nothing once its frontiers
// have grown. Dist is required, Mask and Count are filled when non-nil, and
// each covers every row. Rows and results share one index space: NodeIDs,
// or any other numbering of the nodes the rows name (OSPF searches switch
// ordinals, SwitchIndex).
type Search struct {
	Dist  []int    // hops from the source; Unreachable if none
	Mask  []uint64 // source ports that begin some shortest path; walk bits upward for port order
	Count []int    // distinct shortest paths; parallel links count apart

	frontier, next []NodeID
}

// Run searches rows from root, the row of node src of t. src names the
// source's port of each first-hop link, which only Mask reads; over
// NodeID-indexed rows root and src are the same.
//
//f2tree:hotpath
func (s *Search) Run(t *Topology, rows [][]Edge, root, src NodeID) {
	for n := range s.Dist {
		s.Dist[n] = Unreachable
	}
	clear(s.Mask)
	clear(s.Count)
	s.Dist[root] = 0
	if s.Count != nil {
		s.Count[root] = 1
	}
	frontier, next := append(s.frontier[:0], root), s.next[:0] //f2tree:alloc amortized frontier growth, zero once warm
	for du := 0; len(frontier) > 0; du++ {
		next = next[:0]
		for _, u := range frontier {
			for _, e := range rows[u] {
				dv := s.Dist[e.To]
				if dv < du+1 {
					continue
				}
				if dv > du+1 {
					s.Dist[e.To] = du + 1
					next = append(next, e.To) //f2tree:alloc amortized frontier growth, zero once warm
				}
				if s.Count != nil {
					s.Count[e.To] += s.Count[u]
				}
				if s.Mask == nil {
					continue
				}
				if u != root {
					s.Mask[e.To] |= s.Mask[u]
				} else if p, ok := t.Links[e.Link].PortOf(src); ok {
					s.Mask[e.To] |= 1 << p // 0 for p ≥ MaskPorts
				}
			}
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
}
