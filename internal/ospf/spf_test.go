package ospf

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/sim"
	"repro/internal/topo"
)

// scanCheckedRow is checkedRow without the two-way-check memo: every edge of
// origin o's LSA is kept when the far end's LSA, as i holds it, advertises
// the same link back.
func scanCheckedRow(i *Instance, o topo.NodeID) []topo.Edge {
	lsa := i.lsdb[o]
	if lsa == nil {
		return nil
	}
	var row []topo.Edge
	for _, e := range lsa.edges(&i.d.sw) {
		peer := i.lsdb[e.To]
		if peer == nil {
			continue
		}
		for _, b := range peer.edges(&i.d.sw) {
			if b.To > o {
				break
			}
			if b.To == o && b.Link == e.Link {
				row = append(row, e)
				break
			}
		}
	}
	return row
}

// TestTwoWayMemoMatchesScan holds the memoized two-way check to the plain
// scan in every LSDB state a seeded schedule passes through. Twelve fabric
// links fail 17 ms apart — inside the detection window, so the two ends
// withdraw a link at different instants as their LSAs cross the domain —
// and are restored while SPF holds run; an aggregation switch's instance
// crashes and restarts with an empty LSDB; a filter delays every LSA hop by
// 0, 3 or 7 ms, so newer LSAs overtake older ones; every LSA is refreshed at
// the end. An instance's checkedRow for every origin must equal the scan:
// the instance's own after each change to its LSDB (each flood call is
// offered to the filter after the change, before its first hop), and every
// instance's at the first flood call of each instant, after the crash and
// the restart, and at quiescence. The memo is shared by every instance
// through the LSAs, and the checks themselves fill it.
func TestTwoWayMemoMatchesScan(t *testing.T) {
	build := func(n int, dual bool) *topo.Topology {
		tp, err := topo.F2Tree(n)
		if err != nil {
			t.Fatal(err)
		}
		if dual {
			if err := topo.MakeDualToR(tp); err != nil {
				t.Fatal(err)
			}
		}
		return tp
	}
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
	}{
		{"f2tree8", build(8, false)},
		{"dualtor6", build(6, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.tp
			s := sim.New(11)
			nw := mustNetwork(t, s, tp)
			dom := NewDomain(nw, Config{})
			if err := dom.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			delays := [3]time.Duration{0, 3 * time.Millisecond, 7 * time.Millisecond}
			checks, filtered := 0, 0
			var buf []topo.Edge
			checkInstance := func(when string, inst *Instance) {
				checks++
				for o := range inst.lsdb {
					buf = buf[:0]
					got := inst.checkedRow(topo.NodeID(o), &buf)
					want := scanCheckedRow(inst, topo.NodeID(o))
					if !slices.Equal(got, want) {
						t.Fatalf("%s at %v: node %d's row of origin %d is %v, the scan gives %v",
							when, s.Now(), inst.node, dom.sw.Node(topo.NodeID(o)), got, want)
					}
					if lsa := inst.lsdb[o]; lsa != nil && len(want) < len(lsa.Adjacencies) {
						filtered++
					}
				}
			}
			check := func(when string) {
				for _, inst := range dom.instances {
					if inst != nil {
						checkInstance(when, inst)
					}
				}
			}
			lastFrom, lastNow := topo.NodeID(topo.None), sim.Time(-1)
			var lastLSA *LSA
			dom.SetFloodFilter(func(now sim.Time, from, to topo.NodeID, lsa *LSA) (bool, time.Duration) {
				if now != lastNow { // the first flood call of an instant
					lastNow = now
					check("instant")
				}
				if from != lastFrom || lsa != lastLSA { // the first hop of a flood call
					lastFrom, lastLSA = from, lsa
					checkInstance("flood", dom.instances[from])
				}
				return false, delays[floodMix(from, to, lsa.Seq)%3]
			})

			fabric := fabricLinksOf(tp, func(*topo.Node) bool { return true })
			const faults = 12
			for k := 0; k < faults; k++ {
				link := fabric[(k*len(fabric)+len(fabric)/3)/faults]
				failAt := 100*sim.Millisecond + sim.Time(k)*17*sim.Millisecond
				s.At(failAt, func(sim.Time) { nw.FailLink(link) })
				s.At(failAt+450*sim.Millisecond+sim.Time(k)*113*sim.Millisecond, func(sim.Time) { nw.RestoreLink(link) })
			}
			agg := tp.NodesOfKind(topo.Agg)[2]
			s.At(150*sim.Millisecond, func(now sim.Time) {
				dom.SetNodeDown(now, agg, true)
				check("crash")
			})
			s.At(900*sim.Millisecond, func(now sim.Time) {
				dom.SetNodeDown(now, agg, false)
				check("restart")
			})
			s.At(4*sim.Second, dom.RefreshAll)
			if err := s.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			check("quiescence")
			if filtered == 0 {
				t.Fatalf("no check saw a link advertised by one end only (%d checks)", checks)
			}
			t.Logf("%d checks, %d filtered rows", checks, filtered)
		})
	}
}

// TestSharedSPFMatchesFresh holds the rows and prefix table a domain's
// instances share to a build from scratch: at every check, each live
// instance's computeRoutes must give the routes, in content and order, that
// a build, search and emission on a fresh spfScratch give for its LSDB.
// The states: converged (after Bootstrap and after a refresh), where every
// run after the first reuses the snapshot; mid-flood, checked every
// simulated millisecond while a failed link's LSAs are still crossing the
// domain, so LSDBs differ and runs must rebuild; half-down, one end's
// detector held back so its LSA keeps advertising the dead link and the
// two-way check filters its row; and a ToR crashed and restarted with a
// cleared LSDB, straight after the restart and once its own floods are
// done. F²Tree(8) and dual-ToR F²Tree(6), whose racks anycast one subnet
// from two ToRs.
func TestSharedSPFMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		dual bool
	}{{"f2tree8", 8, false}, {"dualtor6", 6, true}} {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := topo.F2Tree(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if tc.dual {
				if err := topo.MakeDualToR(tp); err != nil {
					t.Fatal(err)
				}
			}
			s := sim.New(7)
			nw := mustNetwork(t, s, tp)
			dom := NewDomain(nw, Config{})
			if err := dom.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			var shared, fresh routeList
			counts := map[string]int{}
			check := func(state string) {
				t.Helper()
				for _, inst := range dom.instances {
					if inst == nil || inst.down {
						continue
					}
					if slices.Equal(inst.lsdb, dom.scratch.lsdb) {
						counts["hit"]++
					} else {
						counts[state+" miss"]++
					}
					got := inst.computeRoutes(&shared)
					sc := &dom.scratch
					for o, lsa := range inst.lsdb {
						if lsa != nil && len(sc.graph[o]) < len(lsa.Adjacencies) {
							counts[state+" filtered"]++
						}
					}
					if len(sc.ids) > len(sc.prefixes) {
						counts["multi-origin"]++
					}
					kept := dom.scratch
					dom.scratch = spfScratch{}
					dom.scratch.init(dom.sw.Len())
					inst.buildGraph()
					inst.search()
					want := inst.emitRoutes(&fresh)
					dom.scratch = kept
					for k := range max(len(got), len(want)) {
						if k >= len(got) || k >= len(want) || !sameRoute(got[k], want[k]) {
							t.Fatalf("%s at %v: %s's shared run gives %d routes, a fresh one %d; they part at route %d",
								state, s.Now(), tp.Node(inst.node).Name, len(got), len(want), k)
						}
					}
				}
			}
			agree := func() bool {
				var first []*LSA
				for _, inst := range dom.instances {
					if inst == nil || inst.down {
						continue
					}
					if first == nil {
						first = inst.lsdb
					} else if !slices.Equal(first, inst.lsdb) {
						return false
					}
				}
				return true
			}
			// settle runs the simulator to quiescence a millisecond at a
			// time, checking every step that flooded an LSA and left the
			// LSDBs disagreeing.
			flooded := false
			dom.SetFloodFilter(func(sim.Time, topo.NodeID, topo.NodeID, *LSA) (bool, time.Duration) {
				flooded = true
				return false, 0
			})
			settle := func() {
				t.Helper()
				for s.Pending() > 0 {
					flooded = false
					if err := s.Run(s.Now().Add(time.Millisecond)); err != nil {
						t.Fatal(err)
					}
					if flooded && !agree() {
						check("mid-flood")
					}
				}
			}

			check("converged")
			fabric := fabricLinksOf(tp, func(*topo.Node) bool { return true })
			for k := 0; k < 3; k++ {
				l := *tp.Link(fabric[(k*len(fabric)+len(fabric)/5)/3])
				nw.SetDetectionFilter(func(_ sim.Time, node topo.NodeID, port int, up bool) bool {
					return node == l.A && port == l.APort && !up
				})
				s.After(0, func(sim.Time) { nw.FailLink(l.ID) })
				settle()
				check("half-down")
				nw.SetDetectionFilter(nil)
				nw.RescanPorts(l.A)
				settle()
				s.After(0, func(sim.Time) { nw.RestoreLink(l.ID) })
				settle()
				check("converged")
			}

			tor := tp.NodesOfKind(topo.ToR)[1]
			dom.SetNodeDown(s.Now(), tor, true)
			check("crashed")
			dom.SetNodeDown(s.Now(), tor, false)
			if n := dom.Instance(tor).LSDBSize(); n != 1 {
				t.Fatalf("the restarted ToR holds %d LSAs, want its own only", n)
			}
			check("restarted")
			settle()
			check("restarted")
			s.After(0, dom.RefreshAll)
			settle()
			check("converged")

			t.Logf("%v", counts)
			for _, c := range []string{"hit", "mid-flood miss", "half-down filtered", "restarted miss"} {
				if counts[c] == 0 {
					t.Errorf("no check counted %q", c)
				}
			}
			if tc.dual && counts["multi-origin"] == 0 {
				t.Error("no snapshot held a prefix advertised by two origins")
			}
		})
	}
}

func sameRoute(a, b fib.Route) bool {
	return a.Prefix == b.Prefix && a.Source == b.Source && slices.Equal(a.NextHops, b.NextHops)
}
