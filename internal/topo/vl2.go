package topo

import "fmt"

// VL2 builds a VL2-style fabric (Greenberg et al., SIGCOMM 2009) with
// n-port switches: n/2 intermediate switches, n aggregation switches fully
// bipartite with the intermediates via n/2 uplinks each, and n aggregation
// pairs each serving n/2−1 ToRs... simplified to the shape Fig 7(b) of the
// paper uses:
//
//   - n/2 intermediate switches,
//   - n aggregation switches, each connected to every intermediate,
//   - ToRs attached to aggregation *pairs* (agg 2i, agg 2i+1), each ToR
//     dual-homed with one uplink to each member of its pair,
//   - n/2 hosts per ToR.
//
// Aggregation switches spend n/2 ports upward; the remaining n/2 ports
// serve n/2 ToRs per pair member.
func VL2(n int) (*Topology, error) {
	return vl2(n, false)
}

// F2VL2 builds the F²Tree variant of VL2 (paper §V, Fig 7(b)): each
// aggregation pair gains a double across link (its members act as each
// other's left and right across neighbors), paid for with two upward ports
// per aggregation switch. Upward ECMP keeps n/2−2 choices, so at n = 6 an
// aggregation switch has one uplink and no upward ECMP at all, while
// aggregation→ToR downward failures become locally reroutable.
func F2VL2(n int) (*Topology, error) {
	return vl2(n, true)
}

func vl2(n int, f2 bool) (*Topology, error) {
	if n < 6 || n%2 != 0 {
		return nil, fmt.Errorf("topo: VL2 needs even n ≥ 6, got %d", n)
	}
	ints := n / 2
	aggsN := n
	pairs := aggsN / 2
	torsPerPair := n / 2 // each pair member spends its n/2 down ports
	name := fmt.Sprintf("vl2-%d", n)
	upPerAgg := ints
	if f2 {
		name = fmt.Sprintf("f2vl2-%d", n)
		upPerAgg = ints - 2 // two upward ports fund the across links
	}

	t, ap, err := newPlanned(name)
	if err != nil {
		return nil, err
	}
	intIDs := make([]NodeID, ints)
	for i := range intIDs {
		if intIDs[i], err = ap.addSwitch(t, Core, fmt.Sprintf("int-%d", i), aggsN, 0, i); err != nil {
			return nil, err
		}
	}
	aggIDs := make([]NodeID, aggsN)
	for i := range aggIDs {
		if aggIDs[i], err = ap.addSwitch(t, Agg, fmt.Sprintf("agg-%d", i), n, i/2, i%2); err != nil {
			return nil, err
		}
	}
	// Aggregation ↔ intermediate. In the F² variant agg 2i skips the two
	// intermediates (2i and 2i+1 mod ints)… spread the skipped pairs so the
	// intermediate layer stays balanced.
	for i, agg := range aggIDs {
		skip1, skip2 := -1, -1
		if f2 {
			skip1 = i % ints
			skip2 = (i + 1) % ints
		}
		made := 0
		for j, in := range intIDs {
			if j == skip1 || j == skip2 {
				continue
			}
			if _, err := t.AddLink(agg, in, SpineLink); err != nil {
				return nil, err
			}
			made++
		}
		if made != upPerAgg {
			return nil, fmt.Errorf("topo: agg %d has %d uplinks, want %d", i, made, upPerAgg)
		}
	}
	// ToRs and hosts per aggregation pair.
	for p := 0; p < pairs; p++ {
		a0, a1 := aggIDs[2*p], aggIDs[2*p+1]
		for ti := 0; ti < torsPerPair; ti++ {
			tor, err := ap.addSwitch(t, ToR, fmt.Sprintf("tor-v%d-%d", p, ti), n, p, ti)
			if err != nil {
				return nil, err
			}
			if _, err := t.AddLink(tor, a0, EdgeLink); err != nil {
				return nil, err
			}
			if _, err := t.AddLink(tor, a1, EdgeLink); err != nil {
				return nil, err
			}
			if err := t.addHosts(tor, n/2, p, fmt.Sprintf("host-v%d-t%d", p, ti)); err != nil {
				return nil, err
			}
		}
		if f2 {
			// Double across link between the pair members: a 2-ring.
			if err := t.addRing(Agg, p, []NodeID{a0, a1}, 1); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
