package bgp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// referenceRoutes is the oracle of TestRoutesMatchReferenceBFS: what every
// switch's BGP routes should be on tp with the given links failed, derived
// with none of the protocol's machinery — a map-based BFS per switch over
// the topology itself, no sessions, no RIBs, no AS paths. A link leaving
// switch s toward n is a first hop to origin o when n is one step closer
// to o than s is; a prefix takes the hops of its nearest origins (all of
// them on a tie). A switch that originates a prefix installs no BGP route
// for it.
func referenceRoutes(tp *topo.Topology, failed map[topo.LinkID]bool) map[topo.NodeID]map[netaddr.Prefix][]fib.NextHop {
	isSwitch := func(n topo.NodeID) bool { return tp.Node(n).Kind != topo.Host }
	var switches []topo.NodeID
	for _, n := range tp.LiveNodes() {
		if isSwitch(n) {
			switches = append(switches, n)
		}
	}
	usable := func(n topo.NodeID) []*topo.Link {
		var out []*topo.Link
		for _, l := range tp.LinksOf(n) {
			if other, _ := l.Other(n); isSwitch(other) && !failed[l.ID] {
				out = append(out, l)
			}
		}
		return out
	}
	dist := map[topo.NodeID]map[topo.NodeID]int{} // dist[a][b], absent = unreachable
	for _, src := range switches {
		d := map[topo.NodeID]int{src: 0}
		for queue := []topo.NodeID{src}; len(queue) > 0; queue = queue[1:] {
			for _, l := range usable(queue[0]) {
				other, _ := l.Other(queue[0])
				if _, seen := d[other]; !seen {
					d[other] = d[queue[0]] + 1
					queue = append(queue, other)
				}
			}
		}
		dist[src] = d
	}
	origins := map[netaddr.Prefix][]topo.NodeID{}
	for _, n := range switches {
		if nd := tp.Node(n); nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
			origins[nd.Subnet] = append(origins[nd.Subnet], n)
		}
	}
	out := map[topo.NodeID]map[netaddr.Prefix][]fib.NextHop{}
	for _, s := range switches {
		out[s] = map[netaddr.Prefix][]fib.NextHop{}
		for p, os := range origins {
			best := -1
			for _, o := range os {
				if o == s {
					best = -1
					break
				}
				if d, ok := dist[s][o]; ok && (best < 0 || d < best) {
					best = d
				}
			}
			if best < 0 {
				continue
			}
			hops := map[fib.NextHop]bool{}
			for _, o := range os {
				if d, ok := dist[s][o]; !ok || d != best {
					continue
				}
				for _, l := range usable(s) {
					n, _ := l.Other(s)
					if dn, ok := dist[n][o]; ok && dn+1 == best {
						port, _ := l.PortOf(s)
						hops[fib.NextHop{Port: port, Via: tp.Node(n).Addr}] = true
					}
				}
			}
			for h := range hops {
				out[s][p] = append(out[s][p], h)
			}
			sort.Slice(out[s][p], func(a, b int) bool { return fib.HopLess(out[s][p][a], out[s][p][b]) })
		}
	}
	return out
}

// TestRoutesMatchReferenceBFS drives a seeded sequence of link failures
// and restores and, at every quiescent point, compares each switch's
// installed BGP routes with referenceRoutes — an oracle that shares no
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
					for n, wantRoutes := range referenceRoutes(tp, failed) {
						got := map[netaddr.Prefix][]fib.NextHop{}
						for _, r := range nw.Table(n).SourceRoutes(fib.BGP) {
							got[r.Prefix] = r.NextHops
						}
						if g, w := renderRoutes(got), renderRoutes(wantRoutes); g != w {
							t.Fatalf("%s: %s routes diverge from the reference\n--- installed ---\n%s--- reference ---\n%s",
								when, tp.Node(n).Name, g, w)
						}
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

// renderRoutes prints a prefix → next hops map in prefix order.
func renderRoutes(m map[netaddr.Prefix][]fib.NextHop) string {
	var lines []string
	for p, hops := range m {
		lines = append(lines, fmt.Sprintf("%v %v\n", p, hops))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// wideTopology is a hand-built two-tier fabric whose spine has one session
// per ToR.
func wideTopology(t *testing.T, tors int) *topo.Topology {
	t.Helper()
	tp := topo.NewTopology("wide")
	spine := tp.AddNode(topo.Node{Name: "spine", Kind: topo.Core, NumPorts: tors, Addr: netaddr.AddrFrom4(10, 0, 0, 1)})
	for k := 0; k < tors; k++ {
		subnet, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 1, byte(k), 0), 24)
		if err != nil {
			t.Fatal(err)
		}
		tor := tp.AddNode(topo.Node{
			Name: fmt.Sprintf("tor-%d", k), Kind: topo.ToR, NumPorts: 1,
			Addr: netaddr.AddrFrom4(10, 1, byte(k), 1), Subnet: subnet,
		})
		if _, err := tp.AddLink(spine, tor, topo.SpineLink); err != nil {
			t.Fatal(err)
		}
	}
	return tp
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
	_, d := newDomain(wideTopology(t, hopMaskSessions+1))
	if err := d.Bootstrap(); err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("Bootstrap with %d sessions on one switch: err = %v, want one naming \"spine\"", hopMaskSessions+1, err)
	}

	tp := wideTopology(t, hopMaskSessions)
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
