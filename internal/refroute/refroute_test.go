package refroute

import (
	"fmt"
	"testing"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/topo"
)

// vias names the neighbours a route's hops lead to, in hop order.
func vias(tp *topo.Topology, hops []fib.NextHop) []string {
	var out []string
	for _, h := range hops {
		for _, n := range tp.LiveNodes() {
			if tp.Node(n).Addr == h.Via {
				out = append(out, tp.Node(n).Name)
			}
		}
	}
	return out
}

// routeVia fails the test unless switch name of tp routes prefix through
// exactly the named neighbours, in hop order.
func routeVia(t *testing.T, tp *topo.Topology, routes map[topo.NodeID]map[netaddr.Prefix][]fib.NextHop, name, prefix string, want ...string) {
	t.Helper()
	hops := routes[tp.FindNode(name).ID][netaddr.MustParsePrefix(prefix)]
	if got := vias(tp, hops); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s → %s via %v, want %v", name, prefix, got, want)
	}
}

// TestFatTreeAggUsesBothCores: in a healthy fat tree 4 an aggregation
// switch reaches another pod's rack through both of its cores, and a ToR
// reaches a rack of its own pod through both of its aggregation switches.
func TestFatTreeAggUsesBothCores(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	routes := Routes(tp, nil)
	routeVia(t, tp, routes, "agg-p0-0", "10.11.2.0/24", "core-g0-0", "core-g0-1")
	routeVia(t, tp, routes, "tor-p0-0", "10.11.1.0/24", "agg-p0-0", "agg-p0-1")
	if !Connected(tp, nil) {
		t.Error("healthy fat tree reported disconnected")
	}
}

// TestDualToRTieUnion: in dual-ToR F²Tree 6 both ToRs of rack 0 originate
// 10.11.0.0/24. agg-p0-0 is one hop from each, so its route takes both; a
// rack ToR never counts its own advertisement, so it routes the subnet
// toward its peer.
func TestDualToRTieUnion(t *testing.T) {
	tp, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.MakeDualToR(tp); err != nil {
		t.Fatal(err)
	}
	routes := Routes(tp, nil)
	routeVia(t, tp, routes, "agg-p0-0", "10.11.0.0/24", "tor-p0-0", "tor-p0-1")
	routeVia(t, tp, routes, "tor-p0-0", "10.11.0.0/24", "tor-p0-1")
	routeVia(t, tp, routes, "tor-p0-1", "10.11.0.0/24", "tor-p0-0")
}

// TestCutOffToR: with both uplinks of fat tree 4's tor-p0-0 failed, the ToR
// has no routes, nothing routes to its rack, and the switches are no
// longer one component.
func TestCutOffToR(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tor := tp.FindNode("tor-p0-0")
	failed := map[topo.LinkID]bool{}
	for _, l := range tp.LinksOf(tor.ID) {
		if other, _ := l.Other(tor.ID); tp.Node(other).Kind != topo.Host {
			failed[l.ID] = true
		}
	}
	if len(failed) != 2 {
		t.Fatalf("tor-p0-0 has %d uplinks, want 2", len(failed))
	}
	routes := Routes(tp, failed)
	if got := routes[tor.ID]; len(got) != 0 {
		t.Errorf("cut-off ToR has routes:\n%s", Render(got))
	}
	for n, rs := range routes {
		if hops, ok := rs[tor.Subnet]; ok {
			t.Errorf("%s routes the cut-off rack %v via %v", tp.Node(n).Name, tor.Subnet, vias(tp, hops))
		}
	}
	if Connected(tp, failed) {
		t.Error("fabric with a cut-off ToR reported connected")
	}
}
