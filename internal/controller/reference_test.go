package controller

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// refController is the oracle of TestRoutesMatchReferenceBFS: the
// controller's original map-based route computation, kept verbatim below —
// a believed-live switch graph of maps, one BFS per switch merging ECMP
// next hops as map sets, hops ordered by detsort, routes by sort.Slice. It
// shares nothing with the kernel but the topology, which is what makes it
// an oracle.
type refController struct {
	topo *topo.Topology
	view map[topo.LinkID]bool
}

// referenceRoutes is what every switch's controller routes must be on tp
// with the given links failed.
func referenceRoutes(tp *topo.Topology, failed map[topo.LinkID]bool) map[topo.NodeID][]fib.Route {
	c := &refController{topo: tp, view: map[topo.LinkID]bool{}}
	for _, l := range tp.LiveLinks() {
		c.view[l.ID] = !failed[l.ID]
	}
	return c.computeAll()
}

type edge struct {
	to   topo.NodeID
	link topo.LinkID
}

// computeAll runs BFS ECMP from every switch over the controller's current
// view, producing routes to every ToR subnet.
func (c *refController) computeAll() map[topo.NodeID][]fib.Route {
	// Build the believed-live switch graph once.
	graph := make(map[topo.NodeID][]edge)
	for _, l := range c.topo.LiveLinks() {
		if !c.view[l.ID] {
			continue
		}
		if c.topo.Node(l.A).Kind == topo.Host || c.topo.Node(l.B).Kind == topo.Host {
			continue
		}
		graph[l.A] = append(graph[l.A], edge{to: l.B, link: l.ID})
		graph[l.B] = append(graph[l.B], edge{to: l.A, link: l.ID})
	}
	for n := range graph {
		es := graph[n]
		sort.Slice(es, func(i, j int) bool {
			if es[i].to != es[j].to {
				return es[i].to < es[j].to
			}
			return es[i].link < es[j].link
		})
	}

	out := make(map[topo.NodeID][]fib.Route)
	for _, src := range c.topo.LiveNodes() {
		nd := c.topo.Node(src)
		if nd.Kind == topo.Host {
			continue
		}
		out[src] = c.routesFrom(src, graph)
	}
	return out
}

// routesFrom is BFS with ECMP next-hop merging from src.
func (c *refController) routesFrom(src topo.NodeID, graph map[topo.NodeID][]edge) []fib.Route {
	dist := map[topo.NodeID]int{src: 0}
	nh := map[topo.NodeID]map[fib.NextHop]bool{}
	frontier := []topo.NodeID{src}
	for len(frontier) > 0 {
		var next []topo.NodeID
		seen := map[topo.NodeID]bool{}
		for _, u := range frontier {
			for _, e := range graph[u] {
				dv, known := dist[e.to]
				du := dist[u]
				if known && dv < du+1 {
					continue
				}
				if !known {
					dist[e.to] = du + 1
					if !seen[e.to] {
						seen[e.to] = true
						next = append(next, e.to)
					}
				}
				set := nh[e.to]
				if set == nil {
					set = make(map[fib.NextHop]bool, 2)
					nh[e.to] = set
				}
				if u == src {
					l := c.topo.Link(e.link)
					port, ok := l.PortOf(src)
					if !ok {
						continue
					}
					set[fib.NextHop{Port: port, Via: c.topo.Node(e.to).Addr}] = true
				} else {
					for h := range nh[u] {
						set[h] = true
					}
				}
			}
		}
		frontier = next
	}
	var routes []fib.Route
	for _, tor := range c.topo.NodesOfKind(topo.ToR) {
		if tor == src {
			continue
		}
		set := nh[tor]
		if len(set) == 0 {
			continue
		}
		subnet := c.topo.Node(tor).Subnet
		if subnet.IsZero() {
			continue
		}
		hops := detsort.KeysFunc(set, fib.HopLess)
		routes = append(routes, fib.Route{Prefix: subnet, Source: fib.OSPF, NextHops: hops})
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].Prefix.Addr() < routes[j].Prefix.Addr() })
	return routes
}

// TestRoutesMatchReferenceBFS drives 220 seeded link failures and restores
// — up to eight links down at once, half of the picks among the first
// ToR's links, so it is cut off from the fabric and rejoins it — on fat tree 4, F²Tree 6 (parallel across links) and
// dual-ToR F²Tree 6 (anycast rack subnets). At every quiescent point, after
// the recomputation the event caused has been installed, each switch's
// routes must equal the reference's.
func TestRoutesMatchReferenceBFS(t *testing.T) {
	const events = 220
	dual, err := dualToR(6)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Topology{fat, f2, dual} {
		t.Run(tp.Name, func(t *testing.T) {
			s, nw, ctrl := buildLab(t, tp, Config{})
			fabric := fabricLinks(tp)
			var uplinks []topo.LinkID
			for _, l := range tp.LinksOf(tp.NodesOfKind(topo.ToR)[0]) {
				if slices.Contains(fabric, l.ID) {
					uplinks = append(uplinks, l.ID)
				}
			}
			failed := map[topo.LinkID]bool{}
			check := func(when string) {
				t.Helper()
				if err := s.RunUntilIdle(); err != nil {
					t.Fatal(err)
				}
				want := referenceRoutes(tp, failed)
				for _, n := range detsort.Keys(want) {
					got := nw.Table(n).SourceRoutes(fib.OSPF)
					if g, w := renderRoutes(got), renderRoutes(want[n]); g != w {
						t.Fatalf("%s: %s routes diverge from the reference\n--- installed ---\n%s--- reference ---\n%s",
							when, tp.Node(n).Name, g, w)
					}
				}
			}
			check("after bootstrap")
			rng := rand.New(rand.NewSource(20150629))
			partitioned := 0
			for ev := 0; ev < events; ev++ {
				link := fabric[rng.Intn(len(fabric))]
				if rng.Intn(2) == 0 { // a link of the first ToR: its uplinks fail together and cut it off
					link = uplinks[rng.Intn(len(uplinks))]
				}
				if !failed[link] && len(failed) >= 8 {
					link = slices.Min(detsort.Keys(failed)) // full house: restore the lowest failed link
				}
				up := failed[link]
				if up {
					delete(failed, link)
				} else {
					failed[link] = true
				}
				recomp := ctrl.Recomputations()
				s.After(0, func(sim.Time) { nw.SetLinkState(link, up) })
				check(fmt.Sprintf("event %d (link %d up=%v, %d down)", ev, link, up, len(failed)))
				if got := ctrl.Recomputations(); got != recomp+1 {
					t.Fatalf("event %d: %d recomputations, want 1", ev, got-recomp)
				}
				if !connected(tp, failed) {
					partitioned++
				}
			}
			if partitioned == 0 {
				t.Fatal("sequence never partitioned the fabric")
			}
		})
	}
}

// connected reports whether the switches form one component with the
// failed links gone.
func connected(tp *topo.Topology, failed map[topo.LinkID]bool) bool {
	var start topo.NodeID = topo.None
	total := 0
	for _, n := range tp.LiveNodes() {
		if tp.Node(n).Kind != topo.Host {
			start = n
			total++
		}
	}
	seen := map[topo.NodeID]bool{start: true}
	for queue := []topo.NodeID{start}; len(queue) > 0; queue = queue[1:] {
		for _, l := range tp.LinksOf(queue[0]) {
			other, _ := l.Other(queue[0])
			if tp.Node(other).Kind == topo.Host || failed[l.ID] || seen[other] {
				continue
			}
			seen[other] = true
			queue = append(queue, other)
		}
	}
	return len(seen) == total
}

// renderRoutes prints a route list in prefix order, one line per prefix
// (the last occurrence of a repeated prefix wins, as in an install).
func renderRoutes(rs []fib.Route) string {
	m := map[netaddr.Prefix][]fib.NextHop{}
	for _, r := range rs {
		m[r.Prefix] = r.NextHops
	}
	var lines []string
	for p, hops := range m {
		lines = append(lines, fmt.Sprintf("%v %v\n", p, hops))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// wideTopology is a hand-built two-tier fabric whose spine has `ports`
// ports, one per ToR.
func wideTopology(t *testing.T, ports int) *topo.Topology {
	t.Helper()
	tp := topo.NewTopology("wide")
	spine := tp.AddNode(topo.Node{Name: "spine", Kind: topo.Core, NumPorts: ports, Addr: netaddr.AddrFrom4(10, 0, 0, 1)})
	for k := 0; k < ports; k++ {
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

// TestBootstrapRejectsSwitchWiderThanHopMask pins the width rule of the
// port-bitmask ECMP set: a switch whose ports a mask cannot name is refused
// by name at Bootstrap instead of silently losing the routes over its high
// ports, and the widest switch a mask can name routes over its last port.
func TestBootstrapRejectsSwitchWiderThanHopMask(t *testing.T) {
	newController := func(tp *topo.Topology) (*network.Network, *Controller) {
		nw, err := network.New(sim.New(1), tp, network.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return nw, New(nw, Config{})
	}
	_, ctrl := newController(wideTopology(t, topo.MaskPorts+1))
	if err := ctrl.Bootstrap(); err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("Bootstrap with a %d-port switch: err = %v, want one naming \"spine\"", topo.MaskPorts+1, err)
	}

	tp := wideTopology(t, topo.MaskPorts)
	nw, ctrl := newController(tp)
	if err := ctrl.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	spine, last := tp.FindNode("spine"), tp.FindNode(fmt.Sprintf("tor-%d", topo.MaskPorts-1))
	for _, r := range nw.Table(spine.ID).SourceRoutes(fib.OSPF) {
		if r.Prefix == last.Subnet {
			if len(r.NextHops) != 1 || r.NextHops[0].Port != topo.MaskPorts-1 {
				t.Fatalf("route to the last ToR = %v, want one hop on port %d", r.NextHops, topo.MaskPorts-1)
			}
			return
		}
	}
	t.Fatalf("spine has no route to %v", last.Subnet)
}
