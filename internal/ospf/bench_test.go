package ospf

import (
	"fmt"
	"testing"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

var benchRoutes []fib.Route

// spfBench is a bootstrapped F²Tree domain whose instances are driven
// directly: an op hands every instance the changed LSAs and runs its SPF,
// which is the host work of one domain-wide reconvergence without the
// flooding and timers around it.
type spfBench struct {
	insts []*Instance
	boot  map[topo.NodeID]*LSA // each origin's bootstrap LSA: every adjacency up
	seq   uint64
}

func newSPFBench(tb testing.TB, n int) *spfBench {
	tb.Helper()
	tp, err := topo.F2Tree(n)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := network.New(sim.New(7), tp, network.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	dom := NewDomain(nw, Config{})
	if err := dom.Bootstrap(); err != nil {
		tb.Fatal(err)
	}
	sb := &spfBench{boot: map[topo.NodeID]*LSA{}, seq: 1 << 32}
	for _, inst := range dom.instances {
		if inst != nil {
			sb.insts = append(sb.insts, inst)
			sb.boot[inst.node] = inst.lsdb[inst.node]
		}
	}
	return sb
}

// link returns the k-th switch-to-switch link of the first switch of kind.
func (sb *spfBench) link(kind topo.Kind, k int) *topo.Link {
	d := sb.insts[0].d
	for _, inst := range sb.insts {
		if d.topo.Node(inst.node).Kind != kind {
			continue
		}
		for _, l := range d.topo.LinksOf(inst.node) {
			if other, _ := l.Other(inst.node); d.topo.Node(other).Kind == topo.Host {
				continue
			}
			if k == 0 {
				return l
			}
			k--
		}
	}
	return nil
}

// lsas returns fresh LSAs for both endpoints of every link, advertising
// (up) or omitting (!up) it; every other adjacency keeps its place.
func (sb *spfBench) lsas(up bool, links ...*topo.Link) []*LSA {
	var out []*LSA
	for _, l := range links {
		for _, end := range []topo.NodeID{l.A, l.B} {
			sb.seq++
			full := sb.boot[end]
			lsa := &LSA{Origin: end, Seq: sb.seq, Prefixes: full.Prefixes}
			for _, a := range full.Adjacencies {
				if up || a.Link != l.ID {
					lsa.Adjacencies = append(lsa.Adjacencies, a)
				}
			}
			out = append(out, lsa)
		}
	}
	return out
}

// reconverge installs the LSAs in every instance and runs its SPF.
func (sb *spfBench) reconverge(lsas []*LSA) {
	for _, inst := range sb.insts {
		for _, lsa := range lsas {
			inst.lsdb[lsa.Origin] = lsa
			inst.markDirty(lsa.Origin)
		}
		benchRoutes = inst.computeRoutes()
	}
}

// BenchmarkSPF measures one domain-wide SPF pass (every switch of an
// F²Tree(N) recomputes once) by the path that serves it: a full BFS, the
// single-link repairs, and the fallback a two-link change takes through
// the incremental path into a full BFS. ns/op and allocs/op are per pass,
// not per switch.
func BenchmarkSPF(b *testing.B) {
	type kind struct {
		name string
		full bool // every SPF of the run must be a full BFS (else none may be)
		run  func(b *testing.B, sb *spfBench)
	}
	kinds := []kind{
		{"full", true, func(b *testing.B, sb *spfBench) {
			for n := 0; n < b.N; n++ {
				for _, inst := range sb.insts {
					inst.spf.valid = false
					benchRoutes = inst.computeRoutes()
				}
			}
		}},
		{"linkdown", false, func(b *testing.B, sb *spfBench) {
			l := sb.link(topo.Agg, 0)
			for n := 0; n < b.N; n++ {
				sb.reconverge(sb.lsas(false, l))
				b.StopTimer()
				sb.reconverge(sb.lsas(true, l))
				b.StartTimer()
			}
		}},
		{"linkup", false, func(b *testing.B, sb *spfBench) {
			l := sb.link(topo.Agg, 0)
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				sb.reconverge(sb.lsas(false, l))
				b.StartTimer()
				sb.reconverge(sb.lsas(true, l))
			}
		}},
		{"fallback", true, func(b *testing.B, sb *spfBench) {
			l1, l2 := sb.link(topo.Agg, 0), sb.link(topo.Core, 1)
			up := true
			for n := 0; n < b.N; n++ {
				up = !up
				sb.reconverge(sb.lsas(up, l1, l2))
			}
			if !up {
				b.StopTimer()
				sb.reconverge(sb.lsas(true, l1, l2))
			}
		}},
	}
	benches := map[int]*spfBench{}
	for _, k := range kinds {
		for _, n := range []int{8, 12, 16} {
			b.Run(fmt.Sprintf("%s/N=%d", k.name, n), func(b *testing.B) {
				sb := benches[n]
				if sb == nil {
					sb = newSPFBench(b, n)
					benches[n] = sb
				}
				dom := sb.insts[0].d
				full0, inc0, same0 := dom.SPFTotals()
				b.ReportAllocs()
				b.ResetTimer()
				k.run(b, sb)
				b.StopTimer()
				full, inc, same := dom.SPFTotals()
				if k.full && (inc != inc0 || same != same0) || !k.full && full != full0 {
					b.Fatalf("wrong SPF path measured: full/incremental/unchanged moved by %d/%d/%d",
						full-full0, inc-inc0, same-same0)
				}
			})
		}
	}
}

// TestSPFAllocBudget pins what an SPF run may allocate once the domain has
// converged: the route list it returns and the one array every route's
// NextHops is cut from — two allocations, whichever path serves the run.
// Rows, distances, hop sets, frontiers and the dirty list all reuse storage,
// so nothing scales with the node count (F²Tree N=8: 54 switches).
func TestSPFAllocBudget(t *testing.T) {
	const perRun = 2 // []fib.Route + its []fib.NextHop backing array
	sb := newSPFBench(t, 8)
	l := sb.link(topo.Agg, 0)
	down, up := sb.lsas(false, l), sb.lsas(true, l)
	inst := sb.insts[0].d.instances[l.A] // an endpoint: the repair has work to do
	sb.insts = []*Instance{inst}
	for _, tc := range []struct {
		name string
		runs int
		path int // index into SPFBreakdown: the only counter that may move
		f    func()
	}{
		{"unchanged", 1, 2, func() { benchRoutes = inst.computeRoutes() }},
		{"full", 1, 0, func() {
			inst.spf.valid = false
			benchRoutes = inst.computeRoutes()
		}},
		{"linkdown+linkup", 2, 1, func() {
			sb.reconverge(down)
			sb.reconverge(up)
		}},
	} {
		var before, after [3]int
		before[0], before[1], before[2] = inst.SPFBreakdown()
		got := testing.AllocsPerRun(10, tc.f)
		after[0], after[1], after[2] = inst.SPFBreakdown()
		if want := float64(tc.runs * perRun); got > want {
			t.Errorf("%s: %.0f allocs per call, budget %.0f", tc.name, got, want)
		}
		for k := range before {
			if moved := after[k] != before[k]; moved != (k == tc.path) {
				t.Errorf("%s: SPF full/incremental/unchanged went %v → %v, want only [%d] to move", tc.name, before, after, tc.path)
			}
		}
	}
}

// fabricLinksOf returns the switch-to-switch links touching any node the
// predicate selects, in topology order, each once.
func fabricLinksOf(tp *topo.Topology, pick func(*topo.Node) bool) []topo.LinkID {
	var out []topo.LinkID
	for _, l := range tp.LiveLinks() {
		a, b := tp.Node(l.A), tp.Node(l.B)
		if a.Kind != topo.Host && b.Kind != topo.Host && (pick(a) || pick(b)) {
			out = append(out, l.ID)
		}
	}
	return out
}

// BenchmarkFlood measures a fault and its repair, each run to quiescence on
// a bootstrapped F²Tree(N) domain through the simulator: detection, LSA
// flooding, throttled SPF and FIB install. linkdown is one aggregation
// uplink; podburst is every fabric link touching the ToRs and aggregation
// switches of the last pod, failed at one instant — the flood-heavy case
// (hundreds of LSAs cross the domain at once and most hops are duplicates).
// events/op is the simulator events one op executes.
func BenchmarkFlood(b *testing.B) {
	for _, k := range []struct {
		name  string
		links func(tp *topo.Topology) []topo.LinkID
	}{
		{"linkdown", func(tp *topo.Topology) []topo.LinkID {
			agg := tp.NodesOfKind(topo.Agg)[0]
			return fabricLinksOf(tp, func(nd *topo.Node) bool { return nd.ID == agg })[:1]
		}},
		{"podburst", func(tp *topo.Topology) []topo.LinkID {
			tors := tp.NodesOfKind(topo.ToR)
			last := tp.Node(tors[len(tors)-1]).Pod
			return fabricLinksOf(tp, func(nd *topo.Node) bool {
				return nd.Pod == last && (nd.Kind == topo.ToR || nd.Kind == topo.Agg)
			})
		}},
	} {
		for _, n := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/N=%d", k.name, n), func(b *testing.B) {
				tp, err := topo.F2Tree(n)
				if err != nil {
					b.Fatal(err)
				}
				s := sim.New(7)
				nw := mustNetwork(b, s, tp)
				if err := NewDomain(nw, Config{}).Bootstrap(); err != nil {
					b.Fatal(err)
				}
				links := k.links(tp)
				op := func() {
					for _, up := range []bool{false, true} {
						s.After(0, func(sim.Time) {
							for _, l := range links {
								nw.SetLinkState(l, up)
							}
						})
						if err := s.RunUntilIdle(); err != nil {
							b.Fatal(err)
						}
					}
				}
				op() // warm the simulator's and the domain's pools
				events := s.EventsRun()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.StopTimer()
				b.ReportMetric(float64(s.EventsRun()-events)/float64(b.N), "events/op")
			})
		}
	}
}
