package bgp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/refroute"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRoutesMatchReferenceBFS drives a seeded sequence of link failures
// and restores and, at every quiescent point, compares each switch's
// installed BGP routes with refroute.Routes — an oracle that shares no
// representation with the protocol, so it holds across any re-layout of
// the RIBs. Partitions are included: a session that comes back
// re-advertises the full table, so nothing stale survives a heal.
//
// The bound on fat tree 4 is honest, not cautious. A speaker offers one
// representative path per prefix, and a receiver rejects a path it appears
// on; with five or six links down on that fabric the one path an agg
// offers can loop through the receiver while an equal-length path it does
// not offer would not, and the receiver installs one of two equal-cost
// hops where link-state routing installs both (first seen at event 67 of
// this sequence: agg-p0-0 toward 10.11.5.0/24). That is the path-vector
// model, not a defect of a representation; up to four links down no such
// case arises, nor on the other fabrics up to six.
func TestRoutesMatchReferenceBFS(t *testing.T) {
	const events = 220
	for _, tc := range []struct {
		name    string
		build   func(int) (*topo.Topology, error)
		n       int
		maxDown int
	}{
		{"fattree", topo.FatTree, 4, 4},
		{"f2tree", topo.F2Tree, 6, 6},
		{"f2tree-dual", dualToR, 6, 6},
		{"f2vl2", topo.F2VL2, 8, 6},
	} {
		for _, gr := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%d/gr=%t", tc.name, tc.n, gr), func(t *testing.T) {
				tp, err := tc.build(tc.n)
				if err != nil {
					t.Fatal(err)
				}
				s, nw, _ := buildBGP(t, tp, Config{GracefulRestart: gr})
				fabric := fabricLinks(tp)
				failed := map[topo.LinkID]bool{}
				check := func(when string) {
					t.Helper()
					if err := s.RunUntilIdle(); err != nil {
						t.Fatal(err)
					}
					want := refroute.Routes(tp, failed)
					for n := range want {
						delete(want[n], tp.Node(n).Subnet) // a speaker installs no BGP route for its own prefix
					}
					if err := refroute.Compare(nw, fib.BGP, want); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				check("after bootstrap")
				rng := rand.New(rand.NewSource(20150629))
				for ev := 0; ev < events; ev++ {
					link := fabric[rng.Intn(len(fabric))]
					if !failed[link] && len(failed) >= tc.maxDown {
						// Full house: restore the lowest failed link instead.
						link = topo.None
						for id := range failed {
							if link == topo.None || id < link {
								link = id
							}
						}
					}
					up := failed[link]
					if up {
						delete(failed, link)
					} else {
						failed[link] = true
					}
					s.After(0, func(sim.Time) { nw.SetLinkState(link, up) })
					check(fmt.Sprintf("event %d (link %d up=%v, %d down)", ev, link, up, len(failed)))
				}
			})
		}
	}
}

// TestBootstrapRejectsSpeakerWiderThanHopMask pins the width rule of the
// session-bitmask ECMP set: a switch with more sessions than a mask can
// name is refused by name at Bootstrap instead of silently losing the
// routes over its high sessions, and the widest switch a mask can name
// routes over its last port.
func TestBootstrapRejectsSpeakerWiderThanHopMask(t *testing.T) {
	newDomain := func(tp *topo.Topology) (*network.Network, *Domain) {
		nw, err := network.New(sim.New(1), tp, network.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return nw, NewDomain(nw, Config{})
	}
	_, d := newDomain(refroute.WideFabric(hopMaskSessions + 1))
	if err := d.Bootstrap(); err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("Bootstrap with %d sessions on one switch: err = %v, want one naming \"spine\"", hopMaskSessions+1, err)
	}

	tp := refroute.WideFabric(hopMaskSessions)
	nw, d := newDomain(tp)
	if err := d.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	spine, last := tp.FindNode("spine"), tp.FindNode(fmt.Sprintf("tor-%d", hopMaskSessions-1))
	for _, r := range nw.Table(spine.ID).SourceRoutes(fib.BGP) {
		if r.Prefix == last.Subnet {
			if len(r.NextHops) != 1 || r.NextHops[0].Port != hopMaskSessions-1 {
				t.Fatalf("route to the last ToR = %v, want one hop on port %d", r.NextHops, hopMaskSessions-1)
			}
			return
		}
	}
	t.Fatalf("spine has no route to %v", last.Subnet)
}

// TestInstanceIsNilSafe: Instance indexes a slice by NodeID, and callers
// hand it hosts, topo.None and ids of other topologies.
func TestInstanceIsNilSafe(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, d := buildBGP(t, tp, Config{})
	for _, id := range []topo.NodeID{tp.NodesOfKind(topo.Host)[0], topo.None, topo.NodeID(len(tp.Nodes)), 1 << 20} {
		if d.Instance(id) != nil || d.NodeDown(id) {
			t.Errorf("Instance(%d) = %v, NodeDown = %v, want nil and false", id, d.Instance(id), d.NodeDown(id))
		}
		d.SetNodeDown(0, id, true) // must not panic
	}
	if d.Instance(tp.NodesOfKind(topo.ToR)[0]) == nil {
		t.Error("a ToR has no speaker")
	}
}
