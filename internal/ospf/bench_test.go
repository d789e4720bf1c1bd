package ospf

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

var benchRoutes []fib.Route

// spfBench is a bootstrapped F²Tree domain whose instances are driven
// directly: set hands every instance the changed LSAs and reconverge runs
// every SPF, the host work of one domain-wide reconvergence without the
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
			sb.boot[inst.node] = inst.lsdb[inst.ord]
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

// set puts the LSAs in every instance's LSDB, in place of their origins'
// current ones; set(nil) restores the bootstrap LSDB.
func (sb *spfBench) set(lsas []*LSA) {
	for _, inst := range sb.insts {
		for o, lsa := range sb.boot {
			inst.lsdb[inst.d.sw.Ordinal(o)] = lsa
		}
		for _, lsa := range lsas {
			inst.lsdb[inst.d.sw.Ordinal(lsa.Origin)] = lsa
		}
	}
}

// reconverge runs every instance's SPF once: one domain-wide pass.
func (sb *spfBench) reconverge() {
	for _, inst := range sb.insts {
		benchRoutes = inst.computeRoutes(&inst.out)
	}
}

// halfDown returns a fresh LSA of the link's first end that omits it, while
// the other end still advertises it: the two-way check then filters the
// other end's row, as it does while the two ends' detections race.
func (sb *spfBench) halfDown(l *topo.Link) []*LSA {
	return sb.lsas(false, l)[:1]
}

// BenchmarkSPF measures one domain-wide SPF pass (every switch of an
// F²Tree(N) recomputes once) over three LSDB states: converged (every row is
// its LSA's own), linkdown (both ends of an aggregation uplink withdrew it)
// and halfdown (only one end did, so every instance filters the other end's
// row). ns/op and allocs/op are per pass, not per switch.
func BenchmarkSPF(b *testing.B) {
	kinds := []struct {
		name string
		lsas func(sb *spfBench) []*LSA
	}{
		{"converged", func(*spfBench) []*LSA { return nil }},
		{"linkdown", func(sb *spfBench) []*LSA { return sb.lsas(false, sb.link(topo.Agg, 0)) }},
		{"halfdown", func(sb *spfBench) []*LSA { return sb.halfDown(sb.link(topo.Agg, 0)) }},
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
				sb.set(k.lsas(sb))
				defer sb.set(nil)
				sb.reconverge() // build the fresh LSAs' rows and memos outside the measurement
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sb.reconverge()
				}
			})
		}
	}
}

// TestSPFAllocBudget pins what an SPF run may allocate once its LSAs have
// been seen: nothing, in every LSDB state. Rows are the LSAs' own or cut
// from the domain's arena, the prefix table refills its storage, and
// distances, hop sets, frontiers, the route list and the array its next
// hops are cut from all reuse storage. The wave case runs every instance
// once with a link's LSAs landing in every LSDB half way through, so the
// snapshot is rebuilt twice (the wave's first run, the first run after the
// landing) and reused by every other run. The last case drives a whole
// cycle through the simulator: the throttled timer, the run, the delayed
// event and an unchanged FIB install (F²Tree N=8: 54 switches).
func TestSPFAllocBudget(t *testing.T) {
	sb := newSPFBench(t, 8)
	l := sb.link(topo.Agg, 0)
	down, half := sb.lsas(false, l), sb.halfDown(l)
	all := sb.insts
	inst := sb.insts[0].d.instances[l.A] // an endpoint: the link is one of its first hops
	sb.insts = []*Instance{inst}
	rebuilds := 0
	wave := func() {
		one := sb.insts
		sb.insts, rebuilds = all, 0
		sb.set(nil)
		for k, i := range all {
			if k == len(all)/2 {
				sb.set(down)
			}
			if !slices.Equal(i.lsdb, i.d.scratch.lsdb) {
				rebuilds++
			}
			benchRoutes = i.computeRoutes(&i.out)
		}
		sb.set(nil)
		sb.insts = one
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"converged", sb.reconverge},
		{"linkdown+linkup", func() {
			sb.set(down)
			sb.reconverge()
			sb.set(nil)
			sb.reconverge()
		}},
		{"halfdown", func() {
			sb.set(half)
			sb.reconverge()
		}},
		{"wave", wave},
		{"runSPF+install", func() {
			runs := inst.SPFRuns()
			inst.scheduleSPF(inst.d.sim.Now())
			if err := inst.d.sim.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if inst.SPFRuns() != runs+1 {
				t.Fatal("the armed timer ran no SPF")
			}
		}},
	} {
		sb.set(nil)
		if got := testing.AllocsPerRun(10, tc.f); got > 0 {
			t.Errorf("%s: %.0f allocs per call, budget 0", tc.name, got)
		}
	}
	if rebuilds != 2 {
		t.Errorf("a wave rebuilt the snapshot %d times, want 2", rebuilds)
	}
}

// BenchmarkDomain measures building an OSPF domain on a fresh F²Tree(N)
// network and bootstrapping it: every instance's memory, every LSA, every
// search and every FIB install. allocs/op and B/op are one lab's control
// plane (TestDomainMemoryBudget bounds N=16).
func BenchmarkDomain(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("bootstrap/N=%d", n), func(b *testing.B) {
			tp, err := topo.F2Tree(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw := mustNetwork(b, sim.New(7), tp)
				b.StartTimer()
				if err := NewDomain(nw, Config{}).Bootstrap(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDomainMemoryBudget bounds what NewDomain + Bootstrap allocate on
// F²Tree(16), 266 switches among 1,050 nodes; it measured 9.8 MiB in 5,400
// objects, about 60 % of it the FIBs themselves. The structural half: no
// slice an instance keeps is as long as the node list, so nothing it holds
// grows with the hosts.
func TestDomainMemoryBudget(t *testing.T) {
	const ceiling = 11 << 20
	tp, err := topo.F2Tree(16)
	if err != nil {
		t.Fatal(err)
	}
	nw := mustNetwork(t, sim.New(7), tp)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dom := NewDomain(nw, Config{})
	if err := dom.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("NewDomain + Bootstrap on F²Tree(16) allocate %.1f MiB in %d objects, ceiling %.1f MiB",
			float64(got)/(1<<20), after.Mallocs-before.Mallocs, float64(ceiling)/(1<<20))
	}
	for _, inst := range dom.instances {
		if inst == nil {
			continue
		}
		if field := nodeSizedSlice(reflect.ValueOf(inst).Elem(), "Instance", len(tp.Nodes)); field != "" {
			t.Fatalf("%s has %d entries on node %d: one per node, hosts included", field, len(tp.Nodes), inst.node)
		}
	}
}

// nodeSizedSlice returns the path of the first slice of length n inside v,
// descending into nested structs (not through pointers), or "".
func nodeSizedSlice(v reflect.Value, path string, n int) string {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == n {
			return path
		}
	case reflect.Struct:
		for k := 0; k < v.NumField(); k++ {
			if found := nodeSizedSlice(v.Field(k), path+"."+v.Type().Field(k).Name, n); found != "" {
				return found
			}
		}
	}
	return ""
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
// events/op is the simulator events one op executes; peak-pending is the
// deepest the simulator's queue got (sim.PeakPending).
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
				b.ReportMetric(float64(s.PeakPending()), "peak-pending")
			})
		}
	}
}
