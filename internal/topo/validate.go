package topo

import "fmt"

// Validate checks structural invariants: every live link occupies exactly
// the ports it claims, no port is double-booked, no live link touches a
// pruned node, hosts have at most one link, ToR subnets are disjoint and
// inside the DCN prefix, ring metadata references live across links, and
// the live graph is connected.
func (t *Topology) Validate() error {
	// Port bookkeeping.
	seen := make(map[[2]int]LinkID) // (node, port) → link
	for i := range t.Links {
		l := &t.Links[i]
		if l.Removed {
			continue
		}
		if t.Nodes[l.A].Pruned || t.Nodes[l.B].Pruned {
			return fmt.Errorf("topo: live link %d touches pruned node", l.ID)
		}
		for _, end := range []struct {
			n NodeID
			p int
		}{{l.A, l.APort}, {l.B, l.BPort}} {
			if end.p < 0 || end.p >= t.Nodes[end.n].NumPorts {
				return fmt.Errorf("topo: link %d uses port %d outside %s's %d ports",
					l.ID, end.p, t.Nodes[end.n].Name, t.Nodes[end.n].NumPorts)
			}
			key := [2]int{int(end.n), end.p}
			if prev, dup := seen[key]; dup {
				return fmt.Errorf("topo: port %d of %s used by links %d and %d",
					end.p, t.Nodes[end.n].Name, prev, l.ID)
			}
			seen[key] = l.ID
			if got := t.ports[end.n][end.p]; got != l.ID {
				return fmt.Errorf("topo: port table of %s port %d says link %d, link says %d",
					t.Nodes[end.n].Name, end.p, got, l.ID)
			}
		}
	}
	// Hosts are single- or dual-homed (dual-ToR racks).
	for _, h := range t.NodesOfKind(Host) {
		if got := len(t.LinksOf(h)); got < 1 || got > 2 {
			return fmt.Errorf("topo: host %s has %d links, want 1 or 2", t.Nodes[h].Name, got)
		}
	}
	// ToR subnets inside the DCN prefix and disjoint — except that two
	// ToRs may share one subnet exactly (dual-ToR anycast); a proper
	// overlap is still a bug.
	tors := t.NodesOfKind(ToR)
	for i, a := range tors {
		sa := t.Nodes[a].Subnet
		if !t.Plan.DCNPrefix.ContainsPrefix(sa) {
			return fmt.Errorf("topo: subnet %v of %s outside DCN prefix %v",
				sa, t.Nodes[a].Name, t.Plan.DCNPrefix)
		}
		for _, b := range tors[i+1:] {
			if sb := t.Nodes[b].Subnet; sa.Overlaps(sb) && sa != sb {
				return fmt.Errorf("topo: subnets of %s and %s partially overlap",
					t.Nodes[a].Name, t.Nodes[b].Name)
			}
		}
	}
	// Rack metadata.
	for ri := range t.Racks {
		r := &t.Racks[ri]
		a, b := r.ToRs[0], r.ToRs[1]
		if t.Nodes[a].Kind != ToR || t.Nodes[b].Kind != ToR || t.Nodes[a].Pruned || t.Nodes[b].Pruned {
			return fmt.Errorf("topo: rack %d ToRs invalid", ri)
		}
		if t.Nodes[a].Subnet != r.Subnet || t.Nodes[b].Subnet != r.Subnet {
			return fmt.Errorf("topo: rack %d ToRs do not share subnet %v", ri, r.Subnet)
		}
		pl := &t.Links[r.Peer]
		if pl.Removed || pl.Class != RackLink {
			return fmt.Errorf("topo: rack %d peer link %d invalid", ri, r.Peer)
		}
		if !((pl.A == a && pl.B == b) || (pl.A == b && pl.B == a)) {
			return fmt.Errorf("topo: rack %d peer link %d does not join its ToRs", ri, r.Peer)
		}
		for _, h := range r.Hosts {
			ls := t.LinksOf(h)
			if len(ls) != 2 {
				return fmt.Errorf("topo: rack %d host %s not dual-homed", ri, t.Nodes[h].Name)
			}
			for _, l := range ls {
				if o, _ := l.Other(h); o != a && o != b {
					return fmt.Errorf("topo: rack %d host %s linked outside the rack", ri, t.Nodes[h].Name)
				}
			}
			if !r.Subnet.Contains(t.Nodes[h].Addr) {
				return fmt.Errorf("topo: rack %d host %s outside rack subnet %v", ri, t.Nodes[h].Name, r.Subnet)
			}
		}
	}
	// Ring metadata.
	for ri := range t.Rings {
		r := &t.Rings[ri]
		if len(r.Members) != len(r.RightLink) {
			return fmt.Errorf("topo: ring %d member/link mismatch", ri)
		}
		for i, m := range r.Members {
			if t.Nodes[m].Pruned {
				return fmt.Errorf("topo: ring %d member %s pruned", ri, t.Nodes[m].Name)
			}
			l := &t.Links[r.RightLink[i]]
			if l.Removed || l.Class != AcrossLink {
				return fmt.Errorf("topo: ring %d right link %d invalid", ri, r.RightLink[i])
			}
			next := r.Members[(i+1)%len(r.Members)]
			if !((l.A == m && l.B == next) || (l.B == m && l.A == next)) {
				return fmt.Errorf("topo: ring %d link %d does not join %s–%s",
					ri, l.ID, t.Nodes[m].Name, t.Nodes[next].Name)
			}
		}
	}
	// Connectivity over live nodes.
	live := t.LiveNodes()
	if len(live) == 0 {
		return fmt.Errorf("topo: no live nodes")
	}
	var g Graph
	g.Build(t, nil, true)
	s := Search{Dist: make([]int, len(t.Nodes))}
	s.Run(t, g.Rows, live[0], live[0])
	for _, n := range live {
		if s.Dist[n] == Unreachable {
			return fmt.Errorf("topo: live node %s unreachable", t.Nodes[n].Name)
		}
	}
	return nil
}
