package topo

import "testing"

// TestSearchNoAlloc pins the kernel's allocation contract: once a Graph has
// been built over a topology and a Search's frontiers have grown, rebuilding
// the rows under a new liveness view and searching from every node, with
// distances, masks and counts filled, allocate nothing.
func TestSearchNoAlloc(t *testing.T) {
	tp, err := F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tp.Nodes)
	live := make([]bool, len(tp.Links))
	for _, l := range tp.LiveLinks() {
		live[l.ID] = true
	}
	var g Graph
	s := Search{Dist: make([]int, n), Mask: make([]uint64, n), Count: make([]int, n)}
	g.Build(tp, live, false)
	s.Run(tp, g.Rows, 0)
	flip := 0
	got := testing.AllocsPerRun(20, func() {
		live[flip] = !live[flip]
		flip = (flip + 7) % len(live)
		g.Build(tp, live, true)
		for src := range tp.Nodes {
			s.Run(tp, g.Rows, NodeID(src))
		}
	})
	if got != 0 {
		t.Fatalf("Build + %d searches allocate %.0f times, want 0", n, got)
	}
}
