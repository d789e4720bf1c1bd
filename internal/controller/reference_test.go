package controller

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/detsort"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/refroute"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRoutesMatchReferenceBFS drives 220 seeded link failures and restores
// — up to eight links down at once, half of the picks among the first
// ToR's links, so it is cut off from the fabric and rejoins it — on fat
// tree 4, F²Tree 6 (parallel across links) and dual-ToR F²Tree 6 (anycast
// rack subnets). At every quiescent point, after the recomputation the
// event caused has been installed, each switch's routes must equal
// refroute.Routes: the map-based oracle OSPF and BGP answer to as well.
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
				if err := refroute.Compare(nw, fib.OSPF, refroute.Routes(tp, failed)); err != nil {
					t.Fatalf("%s: %v", when, err)
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
				if !refroute.Connected(tp, failed) {
					partitioned++
				}
			}
			if partitioned == 0 {
				t.Fatal("sequence never partitioned the fabric")
			}
		})
	}
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
	_, ctrl := newController(refroute.WideFabric(topo.MaskPorts + 1))
	if err := ctrl.Bootstrap(); err == nil || !strings.Contains(err.Error(), "spine") {
		t.Fatalf("Bootstrap with a %d-port switch: err = %v, want one naming \"spine\"", topo.MaskPorts+1, err)
	}

	tp := refroute.WideFabric(topo.MaskPorts)
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
