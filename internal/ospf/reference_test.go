package ospf

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// referenceRoutes is the oracle of TestRoutesMatchReferenceBFS: what every
// switch's OSPF routes must be on tp with the given links failed, derived
// with none of the kernel's machinery — a map-based BFS per switch over the
// topology itself, no LSAs, no adjacency rows, no hop masks. A link leaving
// switch s toward n is a first hop to origin o when n is one step closer
// to o than s is; a prefix takes the hops of its nearest origins (all of
// them on a tie), never counting s's own advertisement.
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

// switchGraphConnected reports whether the switches of tp form one
// component once the failed links are gone.
func switchGraphConnected(tp *topo.Topology, failed map[topo.LinkID]bool) bool {
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

// TestRoutesMatchReferenceBFS drives a seeded sequence of link failures
// and restores through a self-checking domain and, at every quiescent
// point, compares each switch's installed OSPF routes with referenceRoutes.
// Up to six links are down at once, so the sequence covers single-link
// repairs in both directions, multi-link fallbacks, switches cut off from
// the fabric and rejoining it, parallel across links (F²Tree) and anycast
// rack prefixes (dual-ToR: the tie-union branch of emitRoutes).
//
// The model floods only on change, so after a partition heals the two
// sides hold stale LSAs about each other's interior. The comparison
// straight after an event therefore runs only while the fabric has stayed
// connected; a RefreshAll round (RFC 2328's periodic refresh) follows every
// event and is always compared.
func TestRoutesMatchReferenceBFS(t *testing.T) {
	const events = 220
	dual, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.MakeDualToR(dual); err != nil {
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
			s := sim.New(7)
			nw := mustNetwork(t, s, tp)
			dom := NewDomain(nw, Config{})
			dom.EnableSelfCheck()
			if err := dom.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			var fabric []topo.LinkID
			for _, l := range tp.LiveLinks() {
				if tp.Node(l.A).Kind != topo.Host && tp.Node(l.B).Kind != topo.Host {
					fabric = append(fabric, l.ID)
				}
			}
			failed := map[topo.LinkID]bool{}
			check := func(when string) {
				t.Helper()
				if err := s.RunUntilIdle(); err != nil {
					t.Fatal(err)
				}
				checkReference(t, when, nw, failed)
			}
			check("after bootstrap")
			rng := rand.New(rand.NewSource(20150629))
			wasConnected := true
			for ev := 0; ev < events; ev++ {
				link := fabric[rng.Intn(len(fabric))]
				if !failed[link] && len(failed) >= 6 {
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
				when := fmt.Sprintf("event %d (link %d up=%v, %d down)", ev, link, up, len(failed))
				connected := switchGraphConnected(tp, failed)
				if wasConnected && connected {
					check(when)
				} else if err := s.RunUntilIdle(); err != nil {
					t.Fatal(err)
				}
				wasConnected = connected
				s.After(0, func(now sim.Time) { dom.RefreshAll(now) })
				check(when + ", refreshed")
			}
			full, inc, same := dom.SPFTotals()
			if full == 0 || inc == 0 || same == 0 {
				t.Fatalf("sequence missed an SPF path: full=%d incremental=%d unchanged=%d", full, inc, same)
			}
		})
	}
}

// checkReference fails the test unless every switch's installed OSPF
// routes equal referenceRoutes with the failed links down.
func checkReference(t *testing.T, when string, nw *network.Network, failed map[topo.LinkID]bool) {
	t.Helper()
	tp := nw.Topology()
	for n, wantRoutes := range referenceRoutes(tp, failed) {
		if g, w := renderRoutes(installedRoutes(nw, n)), renderRoutes(wantRoutes); g != w {
			t.Fatalf("%s: %s routes diverge from the reference\n--- installed ---\n%s--- reference ---\n%s",
				when, tp.Node(n).Name, g, w)
		}
	}
}

// installedRoutes returns a switch's installed OSPF routes by prefix.
func installedRoutes(nw *network.Network, n topo.NodeID) map[netaddr.Prefix][]fib.NextHop {
	got := map[netaddr.Prefix][]fib.NextHop{}
	for _, r := range nw.Table(n).SourceRoutes(fib.OSPF) {
		got[r.Prefix] = r.NextHops
	}
	return got
}

// TestSPFAheadOfPendingInstall runs SPF 1 ms after its trigger and installs
// 10 ms after the run, with the throttle off, under seeded link churn on a
// self-checking domain: each step fails or restores two links 3 ms apart,
// so an instance's second SPF of a step runs while the first one's install
// is still pending. Every install must land the list its own run computed:
// right after it lands, the table equals the reference over the links the
// instance's LSDB held two-way at the run, and at each quiescent point
// every table equals the reference. The churn never cuts the switches
// apart, so no LSDB goes stale.
func TestSPFAheadOfPendingInstall(t *testing.T) {
	const steps, maxDown = 60, 6
	tp, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(7)
	nw := mustNetwork(t, s, tp)
	cfg := Config{DisableThrottle: true, SPFDelay: time.Millisecond, FIBUpdateDelay: 10 * time.Millisecond}
	dom := NewDomain(nw, cfg)
	dom.EnableSelfCheck()
	if err := dom.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	fabric := fabricLinksOf(tp, func(*topo.Node) bool { return true })
	lastSPF, ahead := map[topo.NodeID]sim.Time{}, 0
	dom.OnSPF(func(now sim.Time, node topo.NodeID) {
		if at, ok := lastSPF[node]; ok && now.Sub(at) < cfg.FIBUpdateDelay {
			ahead++
		}
		lastSPF[node] = now
		advertised := map[topo.LinkID]int{} // ends advertising the link in node's LSDB
		for _, lsa := range dom.Instance(node).lsdb {
			if lsa == nil {
				continue
			}
			for _, a := range lsa.Adjacencies {
				advertised[a.Link]++
			}
		}
		down := map[topo.LinkID]bool{}
		for _, l := range fabric {
			down[l] = advertised[l] < 2
		}
		want := renderRoutes(referenceRoutes(tp, down)[node])
		// Scheduled after the run's install event, for the same instant.
		s.After(cfg.FIBUpdateDelay, func(at sim.Time) {
			if got := renderRoutes(installedRoutes(nw, node)); got != want {
				t.Fatalf("%v: %s installed a list its SPF at %v did not compute\n--- installed ---\n%s--- computed ---\n%s",
					at, tp.Node(node).Name, now, got, want)
			}
		})
	})
	failed := map[topo.LinkID]bool{}
	rng := rand.New(rand.NewSource(20150629))
	for step := 0; step < steps; step++ {
		for k := 0; k < 2; k++ {
			link := fabric[rng.Intn(len(fabric))]
			up := failed[link]
			if !up {
				if failed[link] = true; len(failed) > maxDown || !switchGraphConnected(tp, failed) {
					delete(failed, link)
					continue
				}
			} else {
				delete(failed, link)
			}
			s.After(time.Duration(k)*3*time.Millisecond, func(sim.Time) { nw.SetLinkState(link, up) })
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		checkReference(t, fmt.Sprintf("step %d (%d down)", step, len(failed)), nw, failed)
	}
	if ahead == 0 {
		t.Fatal("no SPF ran while its instance's previous install was pending")
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

// TestBootstrapRejectsSwitchWiderThanHopSet pins the width rule of the
// port-bitmask hop set: a switch whose ports a set cannot name is refused
// by name at Bootstrap instead of silently losing the routes over its high
// ports, and the widest switch a set can name routes over its last port.
func TestBootstrapRejectsSwitchWiderThanHopSet(t *testing.T) {
	tp := wideTopology(t, hopSetPorts+1)
	err := NewDomain(mustNetwork(t, sim.New(1), tp), Config{}).Bootstrap()
	if err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("Bootstrap with a %d-port switch: err = %v, want one naming \"spine\"", hopSetPorts+1, err)
	}

	tp = wideTopology(t, hopSetPorts)
	nw := mustNetwork(t, sim.New(1), tp)
	if err := NewDomain(nw, Config{}).Bootstrap(); err != nil {
		t.Fatal(err)
	}
	spine, last := tp.FindNode("spine"), tp.FindNode(fmt.Sprintf("tor-%d", hopSetPorts-1))
	for _, r := range nw.Table(spine.ID).SourceRoutes(fib.OSPF) {
		if r.Prefix == last.Subnet {
			if len(r.NextHops) != 1 || r.NextHops[0].Port != hopSetPorts-1 {
				t.Fatalf("route to the last ToR = %v, want one hop on port %d", r.NextHops, hopSetPorts-1)
			}
			return
		}
	}
	t.Fatalf("spine has no route to %v", last.Subnet)
}
