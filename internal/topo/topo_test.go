package topo

import (
	"testing"

	"repro/internal/netaddr"
)

func TestAddLinkAllocatesPorts(t *testing.T) {
	top := NewTopology("t")
	a := top.AddNode(Node{Name: "a", Kind: Agg, NumPorts: 2})
	b := top.AddNode(Node{Name: "b", Kind: Agg, NumPorts: 2})
	l1, err := top.AddLink(a, b, AcrossLink)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := top.AddLink(a, b, AcrossLink)
	if err != nil {
		t.Fatal(err)
	}
	if l1 == l2 {
		t.Fatal("parallel links share an ID")
	}
	if _, err := top.AddLink(a, b, AcrossLink); err == nil {
		t.Fatal("third link should exhaust ports")
	}
	if got := len(top.LinksBetween(a, b)); got != 2 {
		t.Fatalf("LinksBetween = %d, want 2", got)
	}
	if got := top.Neighbors(a); len(got) != 1 || got[0] != b {
		t.Fatalf("Neighbors = %v", got)
	}
}

func TestSelfLinkRejected(t *testing.T) {
	top := NewTopology("t")
	a := top.AddNode(Node{Name: "a", Kind: Agg, NumPorts: 2})
	if _, err := top.AddLink(a, a, AcrossLink); err == nil {
		t.Fatal("self link accepted")
	}
}

func TestRemoveLinkFreesPorts(t *testing.T) {
	top := NewTopology("t")
	a := top.AddNode(Node{Name: "a", Kind: Agg, NumPorts: 1})
	b := top.AddNode(Node{Name: "b", Kind: Agg, NumPorts: 1})
	c := top.AddNode(Node{Name: "c", Kind: Agg, NumPorts: 1})
	l, err := top.AddLink(a, b, EdgeLink)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.RemoveLink(l); err != nil {
		t.Fatal(err)
	}
	if err := top.RemoveLink(l); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := top.AddLink(a, c, EdgeLink); err != nil {
		t.Fatalf("port not freed: %v", err)
	}
	if len(top.LinksOf(b)) != 0 {
		t.Fatal("removed link still attached")
	}
}

func TestLinkAccessors(t *testing.T) {
	l := Link{ID: 3, A: 1, APort: 5, B: 2, BPort: 6}
	if o, ok := l.Other(1); !ok || o != 2 {
		t.Fatal("Other(A)")
	}
	if o, ok := l.Other(2); !ok || o != 1 {
		t.Fatal("Other(B)")
	}
	if _, ok := l.Other(9); ok {
		t.Fatal("Other(non-endpoint)")
	}
	if p, ok := l.PortOf(1); !ok || p != 5 {
		t.Fatal("PortOf(A)")
	}
	if p, ok := l.PortOf(2); !ok || p != 6 {
		t.Fatal("PortOf(B)")
	}
	if _, ok := l.PortOf(9); ok {
		t.Fatal("PortOf(non-endpoint)")
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		ft, err := FatTree(n)
		if err != nil {
			t.Fatalf("FatTree(%d): %v", n, err)
		}
		if err := ft.Validate(); err != nil {
			t.Fatalf("FatTree(%d) invalid: %v", n, err)
		}
		wantSwitches := 5 * n * n / 4
		if got := ft.SwitchCount(); got != wantSwitches {
			t.Errorf("FatTree(%d) switches = %d, want %d", n, got, wantSwitches)
		}
		wantHosts := n * n * n / 4
		if got := ft.HostCount(); got != wantHosts {
			t.Errorf("FatTree(%d) hosts = %d, want %d", n, got, wantHosts)
		}
		// Every switch port is used in a fat tree.
		for _, id := range ft.LiveNodes() {
			nd := ft.Node(id)
			if nd.Kind == Host {
				continue
			}
			if got := len(ft.LinksOf(id)); got != n {
				t.Errorf("FatTree(%d): %s has %d links, want %d", n, nd.Name, got, n)
			}
		}
		if len(ft.Rings) != 0 {
			t.Errorf("fat tree has rings")
		}
	}
	if _, err := FatTree(3); err == nil {
		t.Fatal("odd n accepted")
	}
	if _, err := FatTree(2); err == nil {
		t.Fatal("n=2 accepted")
	}
}

func TestF2TreeMatchesTable1(t *testing.T) {
	for _, n := range []int{6, 8, 10} {
		f2, err := F2Tree(n)
		if err != nil {
			t.Fatalf("F2Tree(%d): %v", n, err)
		}
		if err := f2.Validate(); err != nil {
			t.Fatalf("F2Tree(%d) invalid: %v", n, err)
		}
		wantSwitches := 5*n*n/4 - 7*n/2 + 2
		if got := f2.SwitchCount(); got != wantSwitches {
			t.Errorf("F2Tree(%d) switches = %d, want %d (Table I)", n, got, wantSwitches)
		}
		wantHosts := n*n*n/4 - n*n + n
		if got := f2.HostCount(); got != wantHosts {
			t.Errorf("F2Tree(%d) hosts = %d, want %d (Table I)", n, got, wantHosts)
		}
		// Every aggregation and core switch sits in exactly one ring and
		// has exactly two across links.
		for _, kind := range []Kind{Agg, Core} {
			for _, id := range f2.NodesOfKind(kind) {
				r, _ := f2.RingOf(id)
				if r == nil {
					t.Fatalf("F2Tree(%d): %s not in a ring", n, f2.Node(id).Name)
				}
				across := 0
				for _, l := range f2.LinksOf(id) {
					if l.Class == AcrossLink {
						across++
					}
				}
				if across != 2 {
					t.Errorf("F2Tree(%d): %s has %d across links, want 2", n, f2.Node(id).Name, across)
				}
			}
		}
		// All switch ports used.
		for _, id := range f2.LiveNodes() {
			nd := f2.Node(id)
			if nd.Kind == Host {
				continue
			}
			if got := len(f2.LinksOf(id)); got != n {
				t.Errorf("F2Tree(%d): %s has %d links, want %d", n, nd.Name, got, n)
			}
		}
	}
	if _, err := F2Tree(4); err == nil {
		t.Fatal("F2Tree(4) should be rejected (core rings degenerate)")
	}
}

func TestF2TreeAcrossNeighbors(t *testing.T) {
	f2, err := F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	aggs := f2.NodesOfKind(Agg)
	a := aggs[0]
	right, rl, ok := f2.RightAcross(a)
	if !ok {
		t.Fatal("no right across neighbor")
	}
	left, ll, ok := f2.LeftAcross(a)
	if !ok {
		t.Fatal("no left across neighbor")
	}
	if right == a || left == a {
		t.Fatal("across neighbor is self")
	}
	if rl == ll {
		t.Fatal("left and right across links coincide")
	}
	// Walking right around the ring returns to the start after ring size.
	ring, _ := f2.RingOf(a)
	cur := a
	for i := 0; i < len(ring.Members); i++ {
		next, _, ok := f2.RightAcross(cur)
		if !ok {
			t.Fatal("ring walk broke")
		}
		cur = next
	}
	if cur != a {
		t.Fatal("ring walk did not close")
	}
}

func TestF2TreeWide(t *testing.T) {
	f2, err := F2TreeWide(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Validate(); err != nil {
		t.Fatal(err)
	}
	// width 4 → each agg/core has 4 across links.
	for _, kind := range []Kind{Agg, Core} {
		for _, id := range f2.NodesOfKind(kind) {
			across := 0
			for _, l := range f2.LinksOf(id) {
				if l.Class == AcrossLink {
					across++
				}
			}
			if across != 4 {
				t.Fatalf("%s has %d across links, want 4", f2.Node(id).Name, across)
			}
		}
	}
	if _, err := F2TreeWide(8, 3); err == nil {
		t.Fatal("odd width accepted")
	}
	if _, err := F2TreeWide(6, 4); err == nil {
		t.Fatal("width 4 at n=6 should be rejected")
	}
}

func TestRewireFatTreePrototype(t *testing.T) {
	p, err := RewireFatTreePrototype(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("prototype invalid: %v", err)
	}
	// 4 pods × (1 ToR + 2 agg) + 2 cores = 14 switches, 8 hosts.
	if got := p.SwitchCount(); got != 14 {
		t.Errorf("switches = %d, want 14", got)
	}
	if got := p.HostCount(); got != 8 {
		t.Errorf("hosts = %d, want 8", got)
	}
	// Each pod's two aggregation switches are joined by a double across
	// link.
	if len(p.Rings) != 4 {
		t.Fatalf("rings = %d, want 4", len(p.Rings))
	}
	for _, r := range p.Rings {
		if len(r.Members) != 2 {
			t.Fatalf("ring size = %d, want 2", len(r.Members))
		}
		if got := len(p.LinksBetween(r.Members[0], r.Members[1])); got != 2 {
			t.Fatalf("across links in pod = %d, want 2", got)
		}
	}
	// The paper's S (pod 0 leftmost ToR) and D (last pod rightmost ToR)
	// both survive.
	if p.FindNode("tor-p0-0") == nil || p.FindNode("tor-p0-0").Pruned {
		t.Fatal("pod 0 leftmost ToR pruned")
	}
	last := p.FindNode("tor-p3-1")
	if last == nil || last.Pruned {
		t.Fatal("last pod rightmost ToR pruned")
	}
	// Sacrificed ToRs pruned.
	if !p.FindNode("tor-p0-1").Pruned || !p.FindNode("tor-p1-0").Pruned {
		t.Fatal("sacrificed ToRs not pruned")
	}
}

func TestLeafSpine(t *testing.T) {
	ls, err := LeafSpine(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ls.NodesOfKind(Core)); got != 4 {
		t.Errorf("spines = %d, want 4", got)
	}
	if got := len(ls.NodesOfKind(ToR)); got != 8 {
		t.Errorf("leaves = %d, want 8", got)
	}
	if got := ls.HostCount(); got != 32 {
		t.Errorf("hosts = %d, want 32", got)
	}

	f2, err := F2LeafSpine(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(f2.NodesOfKind(ToR)); got != 6 {
		t.Errorf("F² leaves = %d, want 6", got)
	}
	if len(f2.Rings) != 1 || f2.Rings[0].Layer != Core {
		t.Fatal("spine ring missing")
	}
}

func TestVL2(t *testing.T) {
	v, err := VL2(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(v.NodesOfKind(Core)); got != 4 {
		t.Errorf("intermediates = %d, want 4", got)
	}
	if got := len(v.NodesOfKind(Agg)); got != 8 {
		t.Errorf("aggs = %d, want 8", got)
	}
	// Every ToR dual-homed.
	for _, tor := range v.NodesOfKind(ToR) {
		ups := 0
		for _, l := range v.LinksOf(tor) {
			if l.Class == EdgeLink {
				ups++
			}
		}
		if ups != 2 {
			t.Fatalf("ToR %s has %d uplinks, want 2", v.Node(tor).Name, ups)
		}
	}

	f2, err := F2VL2(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(f2.Rings); got != 4 {
		t.Fatalf("F²VL2 rings = %d, want 4 (one per agg pair)", got)
	}
	for _, r := range f2.Rings {
		if got := len(f2.LinksBetween(r.Members[0], r.Members[1])); got != 2 {
			t.Fatalf("pair across links = %d, want 2", got)
		}
	}
}

func TestTable1RowFormulas(t *testing.T) {
	row, err := Table1Row("fattree", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Switches != 80 || row.Nodes != 128 {
		t.Fatalf("fattree(8) = %+v", row)
	}
	row, err = Table1Row("f2tree", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Switches != 54 || row.Nodes != 72 {
		t.Fatalf("f2tree(8) = %+v", row)
	}
	row, err = Table1Row("aspen", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Switches != 40 || row.Nodes != 64 {
		t.Fatalf("aspen(8,1) = %+v", row)
	}
	if _, err := Table1Row("aspen", 8, 0); err == nil {
		t.Fatal("aspen f=0 accepted")
	}
	if _, err := Table1Row("bogus", 8, 0); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if got := len(Table1Schemes()); got != 6 {
		t.Fatalf("schemes = %d, want 6", got)
	}
}

func TestBuiltTopologiesMatchFormulas(t *testing.T) {
	// The concrete builders must agree with the closed forms for every n
	// we can build.
	for _, n := range []int{6, 8, 10, 12} {
		f2, err := F2Tree(n)
		if err != nil {
			t.Fatal(err)
		}
		row, err := Table1Row("f2tree", n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if float64(f2.SwitchCount()) != row.Switches {
			t.Errorf("n=%d switches: built %d, formula %v", n, f2.SwitchCount(), row.Switches)
		}
		if float64(f2.HostCount()) != row.Nodes {
			t.Errorf("n=%d hosts: built %d, formula %v", n, f2.HostCount(), row.Nodes)
		}
	}
}

func TestNodeLossFraction(t *testing.T) {
	// Paper §II-D: with 128-port switches F²Tree supports ~2 % fewer nodes.
	got := NodeLossFraction(128)
	if got < 0.02 || got > 0.035 {
		t.Fatalf("loss at n=128 = %v, want ≈ 0.03", got)
	}
}

func TestHostsUnderAndFindNode(t *testing.T) {
	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tor := ft.FindNode("tor-p0-0")
	if tor == nil {
		t.Fatal("tor-p0-0 missing")
	}
	hosts := ft.HostsUnder(tor.ID)
	if len(hosts) != 2 {
		t.Fatalf("hosts under ToR = %d, want 2", len(hosts))
	}
	for _, h := range hosts {
		if !tor.Subnet.Contains(ft.Node(h).Addr) {
			t.Fatalf("host %v outside ToR subnet %v", ft.Node(h).Addr, tor.Subnet)
		}
	}
	if ft.FindNode("nope") != nil {
		t.Fatal("FindNode found a ghost")
	}
}

func TestAddressingUniqueness(t *testing.T) {
	f2, err := F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[netaddr.Addr]string)
	for _, id := range f2.LiveNodes() {
		nd := f2.Node(id)
		if prev, dup := seen[nd.Addr]; dup {
			t.Fatalf("address %v used by %s and %s", nd.Addr, prev, nd.Name)
		}
		seen[nd.Addr] = nd.Name
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: point a ring at a non-across link.
	ft.Rings = append(ft.Rings, Ring{Layer: Agg, Members: []NodeID{0, 1}, RightLink: []LinkID{0, 1}})
	if err := ft.Validate(); err == nil {
		t.Fatal("corrupt ring accepted")
	}
}

func TestLinkOnPort(t *testing.T) {
	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tor := ft.FindNode("tor-p0-0")
	l := ft.LinkOnPort(tor.ID, 0)
	if l == nil {
		t.Fatal("port 0 empty")
	}
	if p, _ := l.PortOf(tor.ID); p != 0 {
		t.Fatal("port mismatch")
	}
	if ft.LinkOnPort(tor.ID, 99) != nil {
		t.Fatal("out-of-range port returned a link")
	}
	if ft.LinkOnPort(tor.ID, -1) != nil {
		t.Fatal("negative port returned a link")
	}
}

// TestSwitchIndexAscendsWithNodeID pins the switch-ordinal contract:
// switches numbered 0, 1, … in NodeID order, hosts left out, and the two
// directions inverse to each other.
func TestSwitchIndexAscendsWithNodeID(t *testing.T) {
	tp, err := F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitchIndex(tp)
	if sw.Len() != tp.SwitchCount() {
		t.Fatalf("%d ordinals for %d switches", sw.Len(), tp.SwitchCount())
	}
	next := NodeID(0)
	for _, nd := range tp.Nodes {
		o := sw.Ordinal(nd.ID)
		if nd.Kind == Host {
			if o != None {
				t.Fatalf("host %s has ordinal %d", nd.Name, o)
			}
			continue
		}
		if o != next || sw.Node(o) != nd.ID {
			t.Fatalf("%s: ordinal %d (node %d back), want %d", nd.Name, o, sw.Node(o), next)
		}
		next++
	}
	if o := sw.Ordinal(NodeID(len(tp.Nodes))); o != None {
		t.Fatalf("a node outside the topology has ordinal %d", o)
	}
}
