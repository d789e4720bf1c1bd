package topo

import "fmt"

// F2Tree builds the canonical F²Tree with n-port switches. The construction
// is pinned down by Table I of the paper (switches = 5n²/4 − 7n/2 + 2,
// hosts = n³/4 − n² + n):
//
//   - n−2 pods, each with n/2 aggregation switches and n/2−1 ToRs
//     (full bipartite: aggregation switches spend n/2−1 down ports);
//   - each pod's aggregation switches form a ring via across links
//     (2 ports each);
//   - the core layer has n/2 groups of n/2−1 cores; group j serves
//     aggregation switch j of every pod, and each group forms a ring;
//   - ToRs are unchanged: n/2 uplinks, n/2 hosts.
//
// n must be even and ≥ 6 (at n=4 the core groups have a single member and
// cannot form rings; use RewireFatTreePrototype for the paper's 4-port
// testbed shape).
func F2Tree(n int) (*Topology, error) {
	return F2TreeWide(n, 2)
}

// F2TreeWide builds an F²Tree whose rings use `width` across links per
// switch (width even, ≥2). The paper's §II-C extension: reserving 4 ports
// instead of 2 survives the 4th failure condition. Each extra pair of
// across ports costs one more down and one more up port per aggregation
// and core switch, shrinking pods and ToR counts accordingly.
func F2TreeWide(n, width int) (*Topology, error) {
	if n < 6 || n%2 != 0 {
		return nil, fmt.Errorf("topo: F²Tree needs even n ≥ 6, got %d", n)
	}
	if width < 2 || width%2 != 0 {
		return nil, fmt.Errorf("topo: ring width must be even ≥ 2, got %d", width)
	}
	reach := width / 2  // across neighbors reached on each side
	down := n/2 - reach // down ports per agg; also ToRs per pod
	up := n/2 - reach   // up ports per agg; also cores per group
	pods := n - width   // down ports per core = pods
	if down < 1 || up < 2 || pods < 3 {
		return nil, fmt.Errorf("topo: n=%d too small for ring width %d", n, width)
	}
	// addRing links each member of a ring of k to its 1st..reach-th
	// successor, and the reach-th successor of a member is itself when
	// k = reach: the core ring needs k > reach members. Where k < 2·reach
	// the chords of the two directions coincide and become parallel links.
	if up <= reach {
		return nil, fmt.Errorf("topo: core ring of %d cannot support width %d", up, width)
	}
	name := fmt.Sprintf("f2tree-%d", n)
	if width != 2 {
		name = fmt.Sprintf("f2tree-%d-w%d", n, width)
	}
	t, _, err := buildTree(name, n,
		treeShape{pods: pods, torsPerPod: down, coresPerGroup: up, parallel: 1, reach: reach})
	return t, err
}

// addRing wires members into a ring with `reach` across links per side and
// records it in t.Rings. For reach 1 this is the ordinary ring; a 2-member
// ring becomes a parallel double link. For reach > 1 each member also links
// to its 2nd..reach-th successor.
func (t *Topology) addRing(layer Kind, pod int, members []NodeID, reach int) error {
	k := len(members)
	if k < 2 {
		return fmt.Errorf("topo: ring needs ≥ 2 members, got %d", k)
	}
	ring := Ring{Layer: layer, Pod: pod, Members: append([]NodeID(nil), members...)}
	ring.RightLink = make([]LinkID, k)
	for i := 0; i < k; i++ {
		id, err := t.AddLink(members[i], members[(i+1)%k], AcrossLink)
		if err != nil {
			return err
		}
		ring.RightLink[i] = id
	}
	// Extra chords for wide rings: connect i to i+2 … i+reach.
	for d := 2; d <= reach; d++ {
		for i := 0; i < k; i++ {
			if _, err := t.AddLink(members[i], members[(i+d)%k], AcrossLink); err != nil {
				return err
			}
		}
	}
	t.Rings = append(t.Rings, ring)
	return nil
}

// RewireFatTreePrototype applies the paper's Fig 1(b) rewiring to a fresh
// n-port fat tree, reproducing the 4-port testbed: in every pod one ToR is
// sacrificed (each aggregation switch drops its link to it, freeing one
// down port), each aggregation switch drops one uplink (agg j drops its
// link to core (j+1) mod n/2 of its group, freeing one up port), the two
// freed ports carry across links forming a ring over the pod's aggregation
// switches, and fully disconnected ToRs/cores are pruned.
//
// Pod 0 sacrifices its last ToR and the other pods their first, so the
// leftmost host of pod 0 and the rightmost host of the last pod — the S and
// D of the paper's experiments — both survive.
func RewireFatTreePrototype(n int) (*Topology, error) {
	t, l, err := fatTree(n)
	if err != nil {
		return nil, err
	}
	t.Name = fmt.Sprintf("f2tree-proto-%d", n)
	half := n / 2
	for p := 0; p < n; p++ {
		sacrifice := 0
		if p == 0 {
			sacrifice = half - 1
		}
		victim := l.tors[p][sacrifice]
		for j := 0; j < half; j++ {
			a := l.aggs[p][j]
			// Free one down port: drop the link to the sacrificed ToR.
			ls := t.LinksBetween(a, victim)
			if len(ls) != 1 {
				return nil, fmt.Errorf("topo: expected 1 link %s–%s, got %d",
					t.Node(a).Name, t.Node(victim).Name, len(ls))
			}
			if err := t.RemoveLink(ls[0].ID); err != nil {
				return nil, err
			}
			// Free one up port: drop the link to core (j+1) mod half of
			// group j.
			dropCore := l.cores[j][(j+1)%half]
			ls = t.LinksBetween(a, dropCore)
			if len(ls) != 1 {
				return nil, fmt.Errorf("topo: expected 1 link %s–%s, got %d",
					t.Node(a).Name, t.Node(dropCore).Name, len(ls))
			}
			if err := t.RemoveLink(ls[0].ID); err != nil {
				return nil, err
			}
		}
		if err := t.addRing(Agg, p, l.aggs[p], 1); err != nil {
			return nil, err
		}
		// The sacrificed ToR has lost every uplink; prune it and its hosts.
		for _, h := range t.HostsUnder(victim) {
			if err := t.PruneNode(h); err != nil {
				return nil, err
			}
		}
		if err := t.PruneNode(victim); err != nil {
			return nil, err
		}
	}
	// Core (j+1) mod half of each group j has lost every link; prune it.
	for j, group := range l.cores {
		if err := t.PruneNode(group[(j+1)%half]); err != nil {
			return nil, err
		}
	}
	return t, nil
}
