package topo

// SwitchIndex numbers a topology's switches — every non-host node, pruned
// ones included — 0, 1, … in ascending NodeID order. State a control-plane
// instance keeps about every other switch (an LSDB, adjacency rows,
// distances) is indexed by these ordinals, so it does not grow with the
// hosts. Ordinals ascend with NodeID: any order taken over ordinals is the
// order taken over the nodes they stand for.
//
// Where the graph kernel's types need a node, an ordinal travels as a
// NodeID: rows built in ordinal space hold ordinals in Edge.To, and Search
// indexes its results by them.
type SwitchIndex struct {
	nodes []NodeID // ordinal → NodeID
	ord   []NodeID // NodeID → ordinal; None for hosts
}

// NewSwitchIndex numbers t's switches as they stand now.
func NewSwitchIndex(t *Topology) SwitchIndex {
	x := SwitchIndex{ord: make([]NodeID, len(t.Nodes))}
	for n := range t.Nodes {
		x.ord[n] = None
		if t.Nodes[n].Kind != Host {
			x.ord[n] = NodeID(len(x.nodes))
			x.nodes = append(x.nodes, NodeID(n))
		}
	}
	return x
}

// Len returns the number of switches.
func (x *SwitchIndex) Len() int { return len(x.nodes) }

// Ordinal returns n's switch ordinal, or None for a host or a node the
// index does not cover.
func (x *SwitchIndex) Ordinal(n NodeID) NodeID {
	if n < 0 || int(n) >= len(x.ord) {
		return None
	}
	return x.ord[n]
}

// Node returns the switch with ordinal o.
func (x *SwitchIndex) Node(o NodeID) NodeID { return x.nodes[o] }
