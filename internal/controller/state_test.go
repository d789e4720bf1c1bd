package controller

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// routeState renders every switch's installed controller routes as
// canonical text: switches in NodeID order, routes in the table's order,
// hops as port@via, plus the recomputation count.
func routeState(nw *network.Network, ctrl *Controller) string {
	tp := nw.Topology()
	var b strings.Builder
	fmt.Fprintf(&b, "recomputations=%d\n", ctrl.Recomputations())
	for _, id := range tp.LiveNodes() {
		if tp.Node(id).Kind == topo.Host {
			continue
		}
		fmt.Fprintf(&b, "node %s\n", tp.Node(id).Name)
		for _, r := range nw.Table(id).SourceRoutes(fib.OSPF) {
			fmt.Fprintf(&b, " %v", r.Prefix)
			for _, h := range r.NextHops {
				fmt.Fprintf(&b, " %d@%v", h.Port, h.Via)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func routeHash(nw *network.Network, ctrl *Controller) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(routeState(nw, ctrl))))[:12]
}

func dualToR(n int) (*topo.Topology, error) {
	tp, err := topo.F2Tree(n)
	if err != nil {
		return nil, err
	}
	return tp, topo.MakeDualToR(tp)
}

// TestControllerStatePinned pins the routes the controller installs: a hash
// over every switch's routes after Bootstrap on the fabric generators of
// bgp's TestProtocolStatePinned, and after every fifth step of a seeded
// churn of link failures, restores and 30 ms flaps. A step runs the
// simulator for a seeded 20–400 ms, so checkpoints land between a report,
// its recomputation and its install. The hashes were captured while the
// controller's search was map-based; the f2tree-dual rows since its routes
// merge a rack subnet's two origin ToRs (one route per subnet, not per ToR).
func TestControllerStatePinned(t *testing.T) {
	wide := func(n int) (*topo.Topology, error) { return topo.F2TreeWide(n, 4) }
	aspen := func(n int) (*topo.Topology, error) { return topo.AspenTree(n, 1) }
	for _, tc := range []struct {
		name  string
		build func(int) (*topo.Topology, error)
		n     int
		want  string
	}{
		{"fattree", topo.FatTree, 4, "fb80a67dc5d5"},
		{"fattree", topo.FatTree, 8, "789ad543fcf4"},
		{"fattree", topo.FatTree, 12, "1b76a5d6c54d"},
		{"f2tree", topo.F2Tree, 6, "529ccc2457bd"},
		{"f2tree", topo.F2Tree, 8, "f7bd116d0975"},
		{"f2tree", topo.F2Tree, 12, "0a99710d254a"},
		{"f2tree-wide4", wide, 10, "da6fbc1833f7"},
		{"f2tree-wide4", wide, 12, "4b4cb8f84f71"},
		{"prototype", topo.RewireFatTreePrototype, 4, "f005e539021e"},
		{"prototype", topo.RewireFatTreePrototype, 8, "17185bd91862"},
		{"leafspine", topo.LeafSpine, 8, "ce6faedac9bb"},
		{"leafspine", topo.LeafSpine, 16, "0e4a47bf19c5"},
		{"f2leafspine", topo.F2LeafSpine, 8, "2b7c6511b464"},
		{"f2leafspine", topo.F2LeafSpine, 16, "fab6fc86b980"},
		{"vl2", topo.VL2, 8, "4b174754023b"},
		{"vl2", topo.VL2, 12, "b96a23219715"},
		{"f2vl2", topo.F2VL2, 8, "f78fb43d781a"},
		{"f2vl2", topo.F2VL2, 12, "543db8af225f"},
		{"aspen1", aspen, 8, "13e5d9201fdd"},
		{"f2tree-dual", dualToR, 6, "d6c64cd4d3f1"},
		{"f2tree-dual", dualToR, 12, "2f4b655e2aa6"},
	} {
		t.Run(fmt.Sprintf("bootstrap/%s/%d", tc.name, tc.n), func(t *testing.T) {
			tp, err := tc.build(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			_, nw, ctrl := buildLab(t, tp, Config{})
			if got := routeHash(nw, ctrl); got != tc.want {
				t.Errorf("route hash after Bootstrap = %s, want %s", got, tc.want)
			}
		})
	}

	for _, tc := range []struct {
		name  string
		build func(int) (*topo.Topology, error)
		n     int
		want  []string // one hash per checkpoint
	}{
		{"fattree", topo.FatTree, 4, []string{
			"f69bb265532e", "e1f874733a75", "47d37d29a9f0", "818b80f047fe", "6511880b61d8", "8be67f216826", "321ff6bd535f", "6f2644e503a1",
		}},
		{"f2tree", topo.F2Tree, 8, []string{
			"fbf36bc16e08", "4923ee1e111d", "abcbd12f35e8", "a217d37a93b6", "6afb96a7dc4c", "b6d915a6ae76", "6f83e700c12a", "593dcb14a24a",
		}},
		{"f2tree-dual", dualToR, 6, []string{
			"25b21a82d2e0", "0550504251de", "7b8e3c8563c8", "180ec97eb3fc", "ff3d955499da", "795619a0c314", "3948893e606a", "f708aafe611e",
		}},
	} {
		t.Run(fmt.Sprintf("churn/%s/%d", tc.name, tc.n), func(t *testing.T) {
			tp, err := tc.build(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			s, nw, ctrl := buildLab(t, tp, Config{})
			if got := churnHashes(t, s, nw, ctrl); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("route hashes under churn:\n got  %q\n want %q", got, tc.want)
			}
		})
	}
}

// fabricLinks returns the live switch-to-switch links in LinkID order.
func fabricLinks(tp *topo.Topology) []topo.LinkID {
	var fabric []topo.LinkID
	for _, l := range tp.LiveLinks() {
		if tp.Node(l.A).Kind != topo.Host && tp.Node(l.B).Kind != topo.Host {
			fabric = append(fabric, l.ID)
		}
	}
	return fabric
}

// churnHashes drives 40 seeded steps — fail or restore a fabric link, or
// flap one for 30 ms — and returns the route hash after every fifth.
func churnHashes(t *testing.T, s *sim.Simulator, nw *network.Network, ctrl *Controller) []string {
	t.Helper()
	fabric := fabricLinks(nw.Topology())
	rng := rand.New(rand.NewSource(20150629))
	var hashes []string
	for step := 1; step <= 40; step++ {
		link := fabric[rng.Intn(len(fabric))]
		up := !nw.LinkUp(link)
		s.After(0, func(sim.Time) { nw.SetLinkState(link, up) })
		if rng.Intn(3) == 0 {
			s.After(30*time.Millisecond, func(sim.Time) { nw.SetLinkState(link, !up) })
		}
		run := time.Duration(20+rng.Intn(381)) * time.Millisecond
		if err := s.Run(s.Now().Add(run)); err != nil {
			t.Fatal(err)
		}
		if step%5 == 0 {
			hashes = append(hashes, routeHash(nw, ctrl))
		}
	}
	return hashes
}
