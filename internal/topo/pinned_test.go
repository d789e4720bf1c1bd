package topo

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// analysisDump renders Analyze() and CountShortestPaths for seeded pairs of
// hosts and of ToRs, before and after seeded links are removed.
func analysisDump(tp *Topology) string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(20150629))
	hosts, tors := tp.NodesOfKind(Host), tp.NodesOfKind(ToR)
	pairs := func(stage string) {
		a := tp.Analyze()
		fmt.Fprintf(&b, "%s diameter=%d interpod=%d\n", stage, a.Diameter, a.InterPodPaths)
		for _, set := range [][]NodeID{hosts, tors} {
			for k := 0; k < 12; k++ {
				x, y := set[rng.Intn(len(set))], set[rng.Intn(len(set))]
				hops, count := tp.CountShortestPaths(x, y)
				fmt.Fprintf(&b, " %d-%d %d %d\n", x, y, hops, count)
			}
		}
	}
	pairs("intact")
	for k := 0; k < 6; k++ {
		live := tp.LiveLinks()
		id := live[rng.Intn(len(live))].ID
		if err := tp.RemoveLink(id); err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "removed %d\n", id)
	}
	pairs("cut")
	return b.String()
}

// TestAnalysisPinned pins the structural analysis on the fabric generators
// the protocol-state pins use: Analyze() and seeded CountShortestPaths
// queries between hosts and between ToRs, on the intact fabric and with six
// seeded links removed (hosts cut off and partitions included). The hashes
// were captured while both searches were map-based.
func TestAnalysisPinned(t *testing.T) {
	wide := func(n int) (*Topology, error) { return F2TreeWide(n, 4) }
	aspen := func(n int) (*Topology, error) { return AspenTree(n, 1) }
	dual := func(n int) (*Topology, error) {
		tp, err := F2Tree(n)
		if err != nil {
			return nil, err
		}
		return tp, MakeDualToR(tp)
	}
	for _, tc := range []struct {
		name  string
		build func(int) (*Topology, error)
		n     int
		want  string
	}{
		{"fattree", FatTree, 4, "11fb6607738d"},
		{"fattree", FatTree, 8, "ab6c92fddbf9"},
		{"fattree", FatTree, 12, "63e35d110589"},
		{"f2tree", F2Tree, 6, "8162284e3029"},
		{"f2tree", F2Tree, 8, "bbd58555dfd8"},
		{"f2tree", F2Tree, 12, "1a38b2ba8f4d"},
		{"f2tree-wide4", wide, 10, "b314e061124b"},
		{"f2tree-wide4", wide, 12, "9ebcee38dd26"},
		{"prototype", RewireFatTreePrototype, 4, "05863fc071d8"},
		{"prototype", RewireFatTreePrototype, 8, "00ab190bd8e9"},
		{"leafspine", LeafSpine, 8, "34b91d94fa02"},
		{"leafspine", LeafSpine, 16, "f3ff53c7a42a"},
		{"f2leafspine", F2LeafSpine, 8, "26788c8172c9"},
		{"f2leafspine", F2LeafSpine, 16, "7afcfa28bcdb"},
		{"vl2", VL2, 8, "1e30a7a4f907"},
		{"vl2", VL2, 12, "7d505cabba6a"},
		{"f2vl2", F2VL2, 8, "8485389cd625"},
		{"f2vl2", F2VL2, 12, "c5cbf4120229"},
		{"aspen1", aspen, 8, "ac8d5e4853d4"},
		{"f2tree-dual", dual, 6, "4d7cf572f7ed"},
		{"f2tree-dual", dual, 12, "81d622203151"},
	} {
		t.Run(fmt.Sprintf("%s/%d", tc.name, tc.n), func(t *testing.T) {
			tp, err := tc.build(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(analysisDump(tp))))[:12]; got != tc.want {
				t.Errorf("analysis hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// structureDump renders everything a builder decides: the WriteJSON export
// (every live node's name, kind, address, subnet, pod, index and port count,
// every live link's endpoints, ports and class), the slot counts pruning
// leaves behind, each ring with its right links, and each dual-ToR rack.
func structureDump(tp *Topology) string {
	var b strings.Builder
	if err := tp.WriteJSON(&b); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "slots nodes=%d links=%d\n", len(tp.Nodes), len(tp.Links))
	for _, r := range tp.Rings {
		fmt.Fprintf(&b, "ring %s pod=%d members=%v right=%v\n", r.Layer, r.Pod, r.Members, r.RightLink)
	}
	for _, r := range tp.Racks {
		fmt.Fprintf(&b, "rack tors=%v peer=%d subnet=%s hosts=%v\n", r.ToRs, r.Peer, r.Subnet, r.Hosts)
	}
	return b.String()
}

// TestBuildersPinned pins the full structure every builder produces — names,
// addresses, ports, pods, indices, NodeIDs, LinkIDs, rings and racks — across
// sizes, ring widths and Aspen fault tolerances. TestAnalysisPinned hashes
// only distances and path counts, so a builder refactor that renumbers a
// port or renames a node would pass it; this one fails.
func TestBuildersPinned(t *testing.T) {
	wide := func(w int) func(int) (*Topology, error) {
		return func(n int) (*Topology, error) { return F2TreeWide(n, w) }
	}
	aspen := func(f int) func(int) (*Topology, error) {
		return func(n int) (*Topology, error) { return AspenTree(n, f) }
	}
	dual := func(build func(int) (*Topology, error)) func(int) (*Topology, error) {
		return func(n int) (*Topology, error) {
			tp, err := build(n)
			if err != nil {
				return nil, err
			}
			return tp, MakeDualToR(tp)
		}
	}
	for _, tc := range []struct {
		name  string
		build func(int) (*Topology, error)
		n     int
		want  string
	}{
		{"fattree", FatTree, 4, "ed8c8c303ef4"},
		{"fattree", FatTree, 6, "eeee581c4a36"},
		{"fattree", FatTree, 8, "1eedbb2003b4"},
		{"fattree", FatTree, 12, "f7ca9dbbce0c"},
		{"fattree", FatTree, 16, "0122a6bba2b5"},
		{"fattree", FatTree, 22, "ee9b13859590"},
		{"f2tree", F2Tree, 6, "f3d576a162c2"},
		{"f2tree", F2Tree, 8, "c6b0ef1ca325"},
		{"f2tree", F2Tree, 10, "0627831192ec"},
		{"f2tree", F2Tree, 16, "d352ef2d9df2"},
		{"f2tree", F2Tree, 22, "98de3062f20f"},
		{"f2tree-w4", wide(4), 10, "90300b76f289"},
		{"f2tree-w4", wide(4), 12, "52e153f0dca8"},
		{"f2tree-w4", wide(4), 16, "dbbe3c81cfbf"},
		{"f2tree-w6", wide(6), 14, "4b0ab4f50ad4"},
		{"f2tree-w6", wide(6), 16, "f2afb7c9be0a"},
		{"prototype", RewireFatTreePrototype, 4, "622070deaf9c"},
		{"prototype", RewireFatTreePrototype, 6, "3430ef32a774"},
		{"prototype", RewireFatTreePrototype, 8, "92df1de6ff21"},
		{"aspen-f1", aspen(1), 4, "9b22436ea730"},
		{"aspen-f1", aspen(1), 8, "b85bd136417f"},
		{"aspen-f1", aspen(1), 12, "4f8cbcd88f46"},
		{"aspen-f2", aspen(2), 6, "f143e476f796"},
		{"aspen-f2", aspen(2), 12, "f867b83ec019"},
		{"leafspine", LeafSpine, 4, "5bf44020fa27"},
		{"leafspine", LeafSpine, 8, "277b267f64b6"},
		{"f2leafspine", F2LeafSpine, 4, "4acf61e667fa"},
		{"f2leafspine", F2LeafSpine, 8, "32a3bb020182"},
		{"vl2", VL2, 6, "0336cab52c23"},
		{"vl2", VL2, 8, "1da869c1b54a"},
		{"f2vl2", F2VL2, 6, "38d2f4967db1"},
		{"f2vl2", F2VL2, 8, "3add3926fd33"},
		{"f2vl2", F2VL2, 12, "db3dfc8a5696"},
		{"f2tree-dual", dual(F2Tree), 6, "3ca4f218f1b2"},
		{"f2tree-dual", dual(F2Tree), 8, "ee022d51db6a"},
		{"fattree-dual", dual(FatTree), 8, "f0ba7869a1c6"},
		{"aspen-f1-dual", dual(aspen(1)), 8, "27f66bda6c61"},
	} {
		t.Run(fmt.Sprintf("%s/%d", tc.name, tc.n), func(t *testing.T) {
			tp, err := tc.build(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(structureDump(tp))))[:12]; got != tc.want {
				t.Errorf("structure hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestBuilderErrorsPinned pins the text of every builder's parameter
// rejections.
func TestBuilderErrorsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  func() error
		want string
	}{
		{"fattree odd", func() error { _, err := FatTree(5); return err }, "topo: fat tree needs even n ≥ 4, got 5"},
		{"fattree small", func() error { _, err := FatTree(2); return err }, "topo: fat tree needs even n ≥ 4, got 2"},
		{"f2tree small", func() error { _, err := F2Tree(4); return err }, "topo: F²Tree needs even n ≥ 6, got 4"},
		{"f2tree odd width", func() error { _, err := F2TreeWide(12, 3); return err }, "topo: ring width must be even ≥ 2, got 3"},
		{"f2tree zero width", func() error { _, err := F2TreeWide(12, 0); return err }, "topo: ring width must be even ≥ 2, got 0"},
		{"f2tree too wide", func() error { _, err := F2TreeWide(6, 4); return err }, "topo: n=6 too small for ring width 4"},
		{"f2tree w4 ring of 2", func() error { _, err := F2TreeWide(8, 4); return err }, "topo: core ring of 2 cannot support width 4"},
		{"f2tree w6 ring of 3", func() error { _, err := F2TreeWide(12, 6); return err }, "topo: core ring of 3 cannot support width 6"},
		{"prototype odd", func() error { _, err := RewireFatTreePrototype(7); return err }, "topo: fat tree needs even n ≥ 4, got 7"},
		{"aspen odd", func() error { _, err := AspenTree(7, 1); return err }, "topo: aspen needs even n ≥ 4, got 7"},
		{"aspen f0", func() error { _, err := AspenTree(8, 0); return err }, "topo: aspen needs f ≥ 1, got 0"},
		{"aspen indivisible", func() error { _, err := AspenTree(8, 2); return err }, "topo: aspen needs n divisible by 2(f+1)=6, got 8"},
		{"leafspine odd", func() error { _, err := LeafSpine(5); return err }, "topo: leaf-spine needs even n ≥ 4, got 5"},
		{"vl2 small", func() error { _, err := VL2(4); return err }, "topo: VL2 needs even n ≥ 6, got 4"},
	} {
		err := tc.err()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
