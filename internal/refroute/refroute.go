// Package refroute is the naive reference router the control planes are
// checked against: the shortest-path ECMP routes every switch must hold
// on a topology with some links failed, derived with maps and one BFS per
// switch over the topology itself. It shares nothing with topo.Search, the
// FIB's install path or any protocol — no LSAs, sessions, adjacency rows or
// hop masks — which is what makes it one oracle for OSPF, BGP and the
// centralized controller alike.
package refroute

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/topo"
)

// graph is tp's switch graph with the failed links gone.
type graph struct {
	tp       *topo.Topology
	failed   map[topo.LinkID]bool
	switches []topo.NodeID // live switches in NodeID order
}

func newGraph(tp *topo.Topology, failed map[topo.LinkID]bool) graph {
	g := graph{tp: tp, failed: failed}
	for _, n := range tp.LiveNodes() {
		if g.isSwitch(n) {
			g.switches = append(g.switches, n)
		}
	}
	return g
}

func (g graph) isSwitch(n topo.NodeID) bool { return g.tp.Node(n).Kind != topo.Host }

// usable returns n's links to other switches that have not failed.
func (g graph) usable(n topo.NodeID) []*topo.Link {
	var out []*topo.Link
	for _, l := range g.tp.LinksOf(n) {
		if other, _ := l.Other(n); g.isSwitch(other) && !g.failed[l.ID] {
			out = append(out, l)
		}
	}
	return out
}

// distances returns the hop count from src to every switch it reaches.
func (g graph) distances(src topo.NodeID) map[topo.NodeID]int {
	d := map[topo.NodeID]int{src: 0}
	for queue := []topo.NodeID{src}; len(queue) > 0; queue = queue[1:] {
		for _, l := range g.usable(queue[0]) {
			other, _ := l.Other(queue[0])
			if _, seen := d[other]; !seen {
				d[other] = d[queue[0]] + 1
				queue = append(queue, other)
			}
		}
	}
	return d
}

// Routes returns every live switch's routes on tp with the failed links
// down, prefix → next hops in fib.HopLess order. A link leaving switch s
// toward n is a first hop to origin o when n is one step closer to o than
// s is. A rack subnet takes the first hops toward its nearest origin ToRs,
// all of them on a tie (dual-ToR racks anycast their subnet from both
// ToRs), and a switch never counts its own advertisement: a dual-ToR
// routes its own subnet toward its peer. A BGP speaker installs no route
// for a prefix it originates, so a BGP check drops those first.
func Routes(tp *topo.Topology, failed map[topo.LinkID]bool) map[topo.NodeID]map[netaddr.Prefix][]fib.NextHop {
	g := newGraph(tp, failed)
	dist := map[topo.NodeID]map[topo.NodeID]int{} // dist[a][b], absent = unreachable
	origins := map[netaddr.Prefix][]topo.NodeID{}
	for _, n := range g.switches {
		dist[n] = g.distances(n)
		if nd := tp.Node(n); nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
			origins[nd.Subnet] = append(origins[nd.Subnet], n)
		}
	}
	out := map[topo.NodeID]map[netaddr.Prefix][]fib.NextHop{}
	for _, s := range g.switches {
		out[s] = map[netaddr.Prefix][]fib.NextHop{}
		for p, os := range origins {
			best := -1
			for _, o := range os {
				if d, ok := dist[s][o]; ok && o != s && (best < 0 || d < best) {
					best = d
				}
			}
			if best < 0 {
				continue
			}
			hops := map[fib.NextHop]bool{}
			for _, o := range os {
				if d, ok := dist[s][o]; !ok || o == s || d != best {
					continue
				}
				for _, l := range g.usable(s) {
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

// Connected reports whether the live switches of tp form one component
// once the failed links are gone.
func Connected(tp *topo.Topology, failed map[topo.LinkID]bool) bool {
	g := newGraph(tp, failed)
	return len(g.switches) == 0 || len(g.distances(g.switches[0])) == len(g.switches)
}

// Installed returns the routes switch n of nw holds from src, by prefix:
// the shape Routes returns.
func Installed(nw *network.Network, n topo.NodeID, src fib.Source) map[netaddr.Prefix][]fib.NextHop {
	got := map[netaddr.Prefix][]fib.NextHop{}
	for _, r := range nw.Table(n).SourceRoutes(src) {
		got[r.Prefix] = r.NextHops
	}
	return got
}

// Compare returns nil if every switch of want holds exactly its routes
// from src in nw, else an error naming the first that does not, in NodeID
// order, with both route sets rendered.
func Compare(nw *network.Network, src fib.Source, want map[topo.NodeID]map[netaddr.Prefix][]fib.NextHop) error {
	for _, n := range detsort.Keys(want) {
		if g, w := Render(Installed(nw, n, src)), Render(want[n]); g != w {
			return fmt.Errorf("%s routes diverge from the reference\n--- installed ---\n%s--- reference ---\n%s",
				nw.Topology().Node(n).Name, g, w)
		}
	}
	return nil
}

// Render prints a prefix → next hops map one line per prefix, in prefix
// order, so two route sets compare as strings and a mismatch reads as text.
func Render(m map[netaddr.Prefix][]fib.NextHop) string {
	var lines []string
	for p, hops := range m {
		lines = append(lines, fmt.Sprintf("%v %v\n", p, hops))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// WideFabric is a hand-built two-tier fabric whose spine, "spine", has
// `ports` ports, one per single-homed ToR "tor-<k>" on subnet 10.1.k.0/24:
// the fixture of the control planes' hop-set width checks. It panics if
// ports exceeds 256.
func WideFabric(ports int) *topo.Topology {
	tp := topo.NewTopology("wide")
	spine := tp.AddNode(topo.Node{Name: "spine", Kind: topo.Core, NumPorts: ports, Addr: netaddr.AddrFrom4(10, 0, 0, 1)})
	for k := 0; k < ports; k++ {
		tor := tp.AddNode(topo.Node{
			Name: fmt.Sprintf("tor-%d", k), Kind: topo.ToR, NumPorts: 1,
			Addr: netaddr.AddrFrom4(10, 1, byte(k), 1), Subnet: netaddr.MustParsePrefix(fmt.Sprintf("10.1.%d.0/24", k)),
		})
		if _, err := tp.AddLink(spine, tor, topo.SpineLink); err != nil {
			panic(err)
		}
	}
	return tp
}
