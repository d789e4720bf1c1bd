package topo

import "fmt"

// LeafSpine builds a two-layer Leaf-Spine fabric with n-port switches:
// n/2 spines, n leaves, every leaf connected to every spine, n/2 hosts per
// leaf. Leaves are modeled as ToRs and spines as Cores.
func LeafSpine(n int) (*Topology, error) {
	return leafSpine(n, false)
}

// F2LeafSpine builds the F²Tree variant of Leaf-Spine (paper §V, Fig 7(a)):
// each spine reserves one upward and one downward port, the spines form a
// ring via across links, and the fabric carries two fewer leaves.
func F2LeafSpine(n int) (*Topology, error) {
	return leafSpine(n, true)
}

func leafSpine(n int, f2 bool) (*Topology, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("topo: leaf-spine needs even n ≥ 4, got %d", n)
	}
	spines := n / 2
	leaves := n
	name := fmt.Sprintf("leafspine-%d", n)
	if f2 {
		if spines < 2 {
			return nil, fmt.Errorf("topo: F² leaf-spine needs ≥ 2 spines")
		}
		leaves = n - 2 // two spine ports per spine go to the ring
		name = fmt.Sprintf("f2leafspine-%d", n)
	}
	t, ap, err := newPlanned(name)
	if err != nil {
		return nil, err
	}
	leafIDs := make([]NodeID, leaves)
	for i := range leafIDs {
		if leafIDs[i], err = ap.addSwitch(t, ToR, fmt.Sprintf("leaf-%d", i), n, 0, i); err != nil {
			return nil, err
		}
	}
	spineIDs := make([]NodeID, spines)
	for i := range spineIDs {
		if spineIDs[i], err = ap.addSwitch(t, Core, fmt.Sprintf("spine-%d", i), n, 0, i); err != nil {
			return nil, err
		}
	}
	for i, leaf := range leafIDs {
		if err := t.addHosts(leaf, n/2, 0, fmt.Sprintf("host-l%d", i)); err != nil {
			return nil, err
		}
		for _, spine := range spineIDs {
			if _, err := t.AddLink(leaf, spine, EdgeLink); err != nil {
				return nil, err
			}
		}
	}
	if f2 {
		if err := t.addRing(Core, 0, spineIDs, 1); err != nil {
			return nil, err
		}
	}
	return t, nil
}
