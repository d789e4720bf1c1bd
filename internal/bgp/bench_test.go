package bgp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// bgpBench is a fabric with a bootstrapped BGP domain on it.
type bgpBench struct {
	s   *sim.Simulator
	nw  *network.Network
	dom *Domain
}

func benchNetwork(tb testing.TB, tp *topo.Topology) (*sim.Simulator, *network.Network) {
	tb.Helper()
	s := sim.New(7)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return s, nw
}

func newBGPBench(tb testing.TB, tp *topo.Topology, cfg Config) *bgpBench {
	tb.Helper()
	s, nw := benchNetwork(tb, tp)
	dom := NewDomain(nw, cfg)
	if err := dom.Bootstrap(); err != nil {
		tb.Fatal(err)
	}
	return &bgpBench{s: s, nw: nw, dom: dom}
}

func (bb *bgpBench) settle(tb testing.TB) {
	if err := bb.s.RunUntilIdle(); err != nil {
		tb.Fatal(err)
	}
}

// torUplink returns the first ToR's first link to an aggregation switch.
func torUplink(tp *topo.Topology) topo.LinkID {
	tor := tp.NodesOfKind(topo.ToR)[0]
	for _, l := range tp.LinksOf(tor) {
		if other, _ := l.Other(tor); tp.Node(other).Kind == topo.Agg {
			return l.ID
		}
	}
	return topo.None
}

// cycleLink fails the link and restores it, each to quiescence.
func (bb *bgpBench) cycleLink(tb testing.TB, link topo.LinkID) {
	bb.nw.FailLink(link)
	bb.settle(tb)
	bb.nw.RestoreLink(link)
	bb.settle(tb)
}

// crashRestart crashes the ToR speaker under graceful restart, restarts it
// one second into the two-second restart window and runs to quiescence:
// its peers retain its routes, resync, and the GR timers armed at the
// crash expire on the resynced sessions and go back to the domain's pool.
func (bb *bgpBench) crashRestart(tb testing.TB, tor topo.NodeID) {
	bb.dom.SetNodeDown(bb.s.Now(), tor, true)
	if err := bb.s.Run(bb.s.Now().Add(time.Second)); err != nil {
		tb.Fatal(err)
	}
	bb.dom.SetNodeDown(bb.s.Now(), tor, false)
	bb.settle(tb)
}

// BenchmarkBGP measures the host cost of the four things a BGP lab does
// on an F²Tree(N): converge from nothing (NewDomain + Bootstrap on a ready
// network), reconverge around one ToR–agg link failing and coming back,
// absorb the withdraw storm of a ToR speaker crashing and restarting
// without graceful restart, and ride out the same crash and restart with
// it (gr-restart, the one kind that arms GR timers). Each op runs the
// simulator to quiescence, so ns/op includes the event core and FIB
// installs the protocol causes. Bootstrap runs at N = 8…22, the others at
// N ≤ 16.
func BenchmarkBGP(b *testing.B) {
	kinds := []struct {
		name string
		run  func(b *testing.B, tp *topo.Topology)
	}{
		{"bootstrap", func(b *testing.B, tp *topo.Topology) {
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				_, nw := benchNetwork(b, tp)
				b.StartTimer()
				if err := NewDomain(nw, Config{}).Bootstrap(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"linkdown", func(b *testing.B, tp *topo.Topology) {
			bb := newBGPBench(b, tp, Config{})
			link := torUplink(tp)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bb.cycleLink(b, link)
			}
		}},
		{"withdraw-storm", func(b *testing.B, tp *topo.Topology) {
			bb := newBGPBench(b, tp, Config{})
			tor := tp.NodesOfKind(topo.ToR)[0]
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bb.dom.SetNodeDown(bb.s.Now(), tor, true)
				bb.settle(b)
				bb.dom.SetNodeDown(bb.s.Now(), tor, false)
				bb.settle(b)
			}
		}},
		{"gr-restart", func(b *testing.B, tp *topo.Topology) {
			bb := newBGPBench(b, tp, Config{GracefulRestart: true})
			tor := tp.NodesOfKind(topo.ToR)[0]
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bb.crashRestart(b, tor)
			}
		}},
	}
	for _, k := range kinds {
		sizes := []int{8, 12, 16}
		if k.name == "bootstrap" {
			sizes = append(sizes, 20, 22) // the curve over N; the live kinds stay small
		}
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/N=%d", k.name, n), func(b *testing.B) {
				tp, err := topo.F2Tree(n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				k.run(b, tp)
			})
		}
	}
}

// TestBGPAllocBudget pins what the dense RIBs bought, on a converged
// F²Tree N=8 (54 speakers, 32 prefixes). Receiving an UPDATE that changes
// no best path allocates nothing. One that changes a best path allocates
// the path the speaker now offers and nothing else — nothing per prefix or
// per session (the sessions' flush timers and the FIB timer are already
// armed after the first change; arming one schedules a package-level
// function with the session or instance as its argument, not a closure, so
// a fresh arm costs nothing once the simulator's event pool is warm either).
//
// Building the network and bootstrapping the domain on it stays under
// 4,000 allocations at N=8 (3,279 measured) and 50,000 at N=16 (44,182).
// Every change the bootstrap announces allocates one offered path, so the
// budgets bound the announcements too and the bootstrap cliff over N
// cannot come back unseen: re-announcing hop-set-only changes, identical
// in content, took 4,922 and 171,892.
func TestBGPAllocBudget(t *testing.T) {
	for _, c := range []struct{ n, budget int }{{8, 4000}, {16, 50000}} {
		tp, err := topo.F2Tree(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(2, func() { newBGPBench(t, tp, Config{}) }); got > float64(c.budget) {
			t.Errorf("F2Tree(%d) network + Bootstrap: %.0f allocs, budget %d", c.n, got, c.budget)
		}
	}

	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	bb := newBGPBench(t, tp, Config{})
	inst := bb.dom.Instance(tp.FindNode("agg-p0-0").ID)
	p := bb.dom.ordinals[tp.FindNode("tor-p3-0").Subnet] // remote pod: learned over several sessions
	var up *session
	for k := range inst.sessions {
		if s := &inst.sessions[k]; inst.locRib[p].hops&(1<<k) != 0 {
			up = s
			break
		}
	}
	if up == nil || inst.locRib[p].pathLen < 2 {
		t.Fatalf("agg-p0-0 best for the remote prefix: %+v", inst.locRib[p])
	}
	same := []advert{{prefix: p, path: *inst.learned(p, up)}}
	shorter := []advert{{prefix: p, path: &asPath{node: up.peer.node, n: 1}}}

	before := inst.locRib[p]
	if got := testing.AllocsPerRun(10, func() { inst.receive(0, up.idx, same, false) }); got != 0 {
		t.Errorf("receive changing no best path: %.0f allocs, want 0", got)
	}
	if inst.locRib[p] != before {
		t.Fatal("re-advertising the held path changed the best path")
	}
	changes := 0
	got := testing.AllocsPerRun(10, func() {
		for _, routes := range [][]advert{shorter, same} {
			offer := inst.locRib[p].offer
			inst.receive(0, up.idx, routes, false)
			if inst.locRib[p].offer != offer {
				changes++
			}
		}
	})
	if changes != 2*11 {
		t.Fatalf("%d best-path changes in 11 runs of two UPDATEs, want 22", changes)
	}
	if got != 2 {
		t.Errorf("two best-path changes: %.0f allocs, want 2 (one offered path each)", got)
	}
}

// TestUpdateDeliveryAllocBudget: once the pools are warm, an UPDATE —
// flush, the delivery event, the peer's receive — allocates nothing. The
// record comes from the domain's free list and goes back when receive
// returns.
func TestUpdateDeliveryAllocBudget(t *testing.T) {
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	bb := newBGPBench(t, tp, Config{})
	inst := bb.dom.Instance(tp.FindNode("agg-p0-0").ID)
	s := &inst.sessions[0]
	p := bb.dom.ordinals[tp.FindNode("tor-p3-0").Subnet]
	if inst.locRib[p].offer == nil {
		t.Fatalf("agg-p0-0 offers nothing for the remote prefix: %+v", inst.locRib[p])
	}
	rx := s.peer.updatesRx
	got := testing.AllocsPerRun(100, func() {
		s.pending.add(p)
		inst.flush(bb.s.Now(), s)
		bb.settle(t)
	})
	if n := s.peer.updatesRx - rx; n != 101 {
		t.Fatalf("peer received %d UPDATEs, want 101", n)
	}
	if got != 0 {
		t.Errorf("flush → deliver → receive: %.0f allocs, want 0", got)
	}
}

// TestLinkCycleAllocBudget caps a warmed ToR uplink failure and repair on
// F²Tree N=8, each run to quiescence: UPDATE records, flush and FIB timers,
// route lists and the bootstrap pump's queue are all reused, so what
// remains is the paths speakers offer after a best-path change and the hop
// arrays the FIB copies changed routes into (1,277 allocations when every
// UPDATE, timer and route list was fresh).
func TestLinkCycleAllocBudget(t *testing.T) {
	const budget = 300
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	bb := newBGPBench(t, tp, Config{})
	link := torUplink(tp)
	bb.cycleLink(t, link) // warm the pools and the domain's rendering buffers
	if got := testing.AllocsPerRun(5, func() { bb.cycleLink(t, link) }); got > budget {
		t.Errorf("link fail and restore: %.0f allocs, budget %d", got, budget)
	}
}

// TestGRRestartAllocBudget caps a warmed ToR crash and restart under
// graceful restart on F²Tree N=8, run to quiescence (BenchmarkBGP's
// gr-restart op; four helpers each arm a GR timer): the timer records come
// from the domain's pool like the UPDATE records (69 allocations measured;
// fresh timer records would make it 73).
func TestGRRestartAllocBudget(t *testing.T) {
	const budget = 72
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	bb := newBGPBench(t, tp, Config{GracefulRestart: true})
	tor := tp.NodesOfKind(topo.ToR)[0]
	bb.crashRestart(t, tor) // warm the pools and the domain's rendering buffers
	if got := testing.AllocsPerRun(5, func() { bb.crashRestart(t, tor) }); got > budget {
		t.Errorf("GR crash and restart: %.0f allocs, budget %d", got, budget)
	}
}
