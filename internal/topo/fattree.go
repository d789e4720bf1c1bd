package topo

import "fmt"

// FatTree builds the standard 3-layer fat tree with n-port switches
// (Al-Fares et al., SIGCOMM 2008): n pods, each with n/2 ToRs and n/2
// aggregation switches fully bipartite; (n/2)² cores in n/2 groups where
// group j serves aggregation switch j of every pod; n/2 hosts per ToR.
func FatTree(n int) (*Topology, error) {
	t, _, err := fatTree(n)
	return t, err
}

// fatTree builds FatTree(n) and also returns its layers, which the
// prototype rewiring edits.
func fatTree(n int) (*Topology, treeLayers, error) {
	if n < 4 || n%2 != 0 {
		return nil, treeLayers{}, fmt.Errorf("topo: fat tree needs even n ≥ 4, got %d", n)
	}
	return buildTree(fmt.Sprintf("fattree-%d", n), n,
		treeShape{pods: n, torsPerPod: n / 2, coresPerGroup: n / 2, parallel: 1})
}

// treeShape gives the counts of a three-tier tree of n-port switches. Every
// pod has n/2 aggregation switches, every ToR n/2 hosts and every ToR a link
// to each aggregation switch of its pod; there are n/2 core groups, and group
// j serves aggregation switch j of every pod. The fat tree, F²Tree of any
// ring width and Aspen differ only in these counts (DESIGN.md §2).
type treeShape struct {
	pods          int
	torsPerPod    int
	coresPerGroup int
	// parallel is the number of links from each aggregation switch to each
	// core of its group.
	parallel int
	// reach is the number of across neighbors each ring member has per
	// side; 0 builds no rings.
	reach int
}

// treeLayers are the switches buildTree created: tors[p][i] and aggs[p][i]
// by pod, cores[g][i] by core group.
type treeLayers struct {
	tors, aggs, cores [][]NodeID
}

// buildTree builds the three-tier tree s describes. The creation order fixes
// every NodeID, LinkID and port: each pod's ToRs, then its aggregation
// switches; the cores, group by group; then per pod each ToR's hosts and the
// pod's ToR–aggregation links; the aggregation–core links; and last the
// aggregation rings, then the core rings. A core carries its group ordinal
// in Node.Pod.
func buildTree(name string, n int, s treeShape) (*Topology, treeLayers, error) {
	var l treeLayers
	t, ap, err := newPlanned(name)
	if err != nil {
		return nil, l, err
	}
	half := n / 2
	layer := func(k Kind, nameFormat string, group, count int) ([]NodeID, error) {
		ids := make([]NodeID, count)
		for i := range ids {
			if ids[i], err = ap.addSwitch(t, k, fmt.Sprintf(nameFormat, group, i), n, group, i); err != nil {
				return nil, err
			}
		}
		return ids, nil
	}
	l.tors = make([][]NodeID, s.pods)
	l.aggs = make([][]NodeID, s.pods)
	for p := range l.tors {
		if l.tors[p], err = layer(ToR, "tor-p%d-%d", p, s.torsPerPod); err != nil {
			return nil, l, err
		}
		if l.aggs[p], err = layer(Agg, "agg-p%d-%d", p, half); err != nil {
			return nil, l, err
		}
	}
	l.cores = make([][]NodeID, half)
	for g := range l.cores {
		if l.cores[g], err = layer(Core, "core-g%d-%d", g, s.coresPerGroup); err != nil {
			return nil, l, err
		}
	}
	for p, tors := range l.tors {
		for i, tor := range tors {
			if err := t.addHosts(tor, half, p, fmt.Sprintf("host-p%d-t%d", p, i)); err != nil {
				return nil, l, err
			}
		}
		for _, tor := range tors {
			for _, agg := range l.aggs[p] {
				if _, err := t.AddLink(tor, agg, EdgeLink); err != nil {
					return nil, l, err
				}
			}
		}
	}
	for _, aggs := range l.aggs {
		for j, agg := range aggs {
			for _, core := range l.cores[j] {
				for d := 0; d < s.parallel; d++ {
					if _, err := t.AddLink(agg, core, SpineLink); err != nil {
						return nil, l, err
					}
				}
			}
		}
	}
	if s.reach > 0 {
		for p, aggs := range l.aggs {
			if err := t.addRing(Agg, p, aggs, s.reach); err != nil {
				return nil, l, err
			}
		}
		for g, cores := range l.cores {
			if err := t.addRing(Core, g, cores, s.reach); err != nil {
				return nil, l, err
			}
		}
	}
	return t, l, nil
}
