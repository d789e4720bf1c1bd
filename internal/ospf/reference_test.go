package ospf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/refroute"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRoutesMatchReferenceBFS drives a seeded sequence of link failures
// and restores through a domain and, at every quiescent point, compares
// each switch's installed OSPF routes with refroute.Routes. Up to six links
// are down at once, so the sequence covers single and multiple failures,
// switches cut off from the fabric and rejoining it, parallel across links
// (F²Tree) and anycast rack prefixes (dual-ToR: the tie-union branch of
// emitRoutes).
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
				connected := refroute.Connected(tp, failed)
				if wasConnected && connected {
					check(when)
				} else if err := s.RunUntilIdle(); err != nil {
					t.Fatal(err)
				}
				wasConnected = connected
				s.After(0, func(now sim.Time) { dom.RefreshAll(now) })
				check(when + ", refreshed")
			}
		})
	}
}

// checkReference fails the test unless every switch's installed OSPF
// routes equal the reference's with the failed links down.
func checkReference(t *testing.T, when string, nw *network.Network, failed map[topo.LinkID]bool) {
	t.Helper()
	if err := refroute.Compare(nw, fib.OSPF, refroute.Routes(nw.Topology(), failed)); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestSPFAheadOfPendingInstall runs SPF 1 ms after its trigger and installs
// 10 ms after the run, with the throttle off, under seeded link churn: each
// step fails or restores two links 3 ms apart, so an instance's second SPF
// of a step runs while the first one's install is still pending. Every
// install must land the list its own run computed: right after it lands,
// the table equals the reference over the links the instance's LSDB held
// two-way at the run, and at each quiescent point every table equals the
// reference. The churn never cuts the switches apart, so no LSDB goes
// stale.
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
		want := refroute.Render(refroute.Routes(tp, down)[node])
		// Scheduled after the run's install event, for the same instant.
		s.After(cfg.FIBUpdateDelay, func(at sim.Time) {
			if got := refroute.Render(refroute.Installed(nw, node, fib.OSPF)); got != want {
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
				if failed[link] = true; len(failed) > maxDown || !refroute.Connected(tp, failed) {
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

// TestBootstrapRejectsSwitchWiderThanHopSet pins the width rule of the
// port-bitmask hop set: a switch whose ports a set cannot name is refused
// by name at Bootstrap instead of silently losing the routes over its high
// ports, and the widest switch a set can name routes over its last port.
func TestBootstrapRejectsSwitchWiderThanHopSet(t *testing.T) {
	tp := refroute.WideFabric(hopSetPorts + 1)
	err := NewDomain(mustNetwork(t, sim.New(1), tp), Config{}).Bootstrap()
	if err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("Bootstrap with a %d-port switch: err = %v, want one naming \"spine\"", hopSetPorts+1, err)
	}

	tp = refroute.WideFabric(hopSetPorts)
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

// TestRoutesInsideDetectionWindow compares every switch's installed routes
// with the reference while one end of a failed link still advertises it.
// The failure detector at that end is suppressed, so its LSA keeps the link
// while the other end's LSA withdraws it: the two-way check must keep the
// link out of every SPF until the end's detector fires (RescanPorts), and
// the domain is compared again once it has, and after the link returns.
// Each failed link is checked with either end lagging, through fabric,
// cross and dual-ToR links. Unlike TestRoutesMatchReferenceBFS, whose
// checks come after both ends have withdrawn, these run the two-way check
// on an edge one end advertises in every SPF of the window, in LSAs whose
// memo already holds the pass of the other end's previous LSA.
func TestRoutesInsideDetectionWindow(t *testing.T) {
	f2, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := topo.F2Tree(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.MakeDualToR(dual); err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Topology{f2, dual} {
		t.Run(tp.Name, func(t *testing.T) {
			s := sim.New(7)
			nw := mustNetwork(t, s, tp)
			dom := NewDomain(nw, Config{})
			if err := dom.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			run := func() {
				t.Helper()
				if err := s.RunUntilIdle(); err != nil {
					t.Fatal(err)
				}
			}
			fabric := fabricLinksOf(tp, func(*topo.Node) bool { return true })
			const links = 6
			for k := 0; k < links; k++ {
				l := *tp.Link(fabric[(k*len(fabric)+len(fabric)/5)/links])
				for _, lag := range [2]struct {
					end, other topo.NodeID
					port       int
				}{{l.A, l.B, l.APort}, {l.B, l.A, l.BPort}} {
					when := fmt.Sprintf("link %d (%s–%s), %s lagging",
						l.ID, tp.Node(l.A).Name, tp.Node(l.B).Name, tp.Node(lag.end).Name)
					nw.SetDetectionFilter(func(_ sim.Time, node topo.NodeID, port int, up bool) bool {
						return node == lag.end && port == lag.port && !up
					})
					s.After(0, func(sim.Time) { nw.FailLink(l.ID) })
					run()
					if !advertises(dom.Instance(lag.other), lag.end, l.ID) {
						t.Fatalf("%s: the other end does not hold an LSA of the lagging end advertising the link", when)
					}
					down := map[topo.LinkID]bool{l.ID: true}
					checkReference(t, when+", inside the window", nw, down)
					nw.SetDetectionFilter(nil)
					nw.RescanPorts(lag.end)
					run()
					checkReference(t, when+", detected", nw, down)
					s.After(0, func(sim.Time) { nw.RestoreLink(l.ID) })
					run()
					checkReference(t, when+", restored", nw, nil)
				}
			}
		})
	}
}

// advertises reports whether inst's LSDB holds an LSA of origin that lists
// the link.
func advertises(inst *Instance, origin topo.NodeID, link topo.LinkID) bool {
	lsa := inst.lsdb[inst.d.sw.Ordinal(origin)]
	if lsa == nil {
		return false
	}
	for _, a := range lsa.Adjacencies {
		if a.Link == link {
			return true
		}
	}
	return false
}
