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
