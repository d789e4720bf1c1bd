package ospf

import (
	"slices"
	"testing"
	"time"

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
