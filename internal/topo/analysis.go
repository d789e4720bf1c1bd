package topo

// Analysis quantifies the §II-D claims — "keeps the merits of fat tree
// such as … rich path diversity" — structurally, without a control plane.
type Analysis struct {
	// Diameter is the longest shortest path between live switches (hops).
	Diameter int
	// InterPodPaths counts distinct shortest paths between a
	// representative pair of ToRs in different pods (0 when the topology
	// has a single pod layer).
	InterPodPaths int
}

// CountShortestPaths returns the shortest-path length (in links) between
// two nodes over live links, and how many distinct shortest paths realize
// it. Returns (0, 0) when unreachable.
func (t *Topology) CountShortestPaths(a, b NodeID) (hops, count int) {
	var g Graph
	g.Build(t, nil, true)
	s := Search{Dist: make([]int, len(t.Nodes)), Count: make([]int, len(t.Nodes))}
	s.Run(t, g.Rows, a, a)
	if s.Dist[b] == Unreachable {
		return 0, 0
	}
	return s.Dist[b], s.Count[b]
}

// Analyze computes the structural summary over switches.
func (t *Topology) Analyze() Analysis {
	var a Analysis
	var g Graph
	g.Build(t, nil, false)
	s := Search{Dist: make([]int, len(t.Nodes))}
	for _, src := range t.LiveNodes() {
		if t.Nodes[src].Kind == Host {
			continue
		}
		s.Run(t, g.Rows, src, src)
		for _, d := range s.Dist {
			if d != Unreachable && d > a.Diameter {
				a.Diameter = d
			}
		}
	}
	// Representative inter-pod ToR pair.
	tors := t.NodesOfKind(ToR)
	if len(tors) >= 2 {
		first := tors[0]
		for _, other := range tors[1:] {
			if t.Node(other).Pod != t.Node(first).Pod {
				_, a.InterPodPaths = t.CountShortestPaths(first, other)
				break
			}
		}
	}
	return a
}
