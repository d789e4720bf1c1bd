package controller

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchmarkController measures the controller on F²Tree(N). bootstrap is
// one Bootstrap per op on a built lab: a search from every switch and an
// install into every table. linkdown is one aggregation uplink failed and
// restored through the simulator, each to quiescence: two reports, two
// recomputations and two installs per op. events/op is the simulator
// events one op executes.
func BenchmarkController(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("bootstrap/N=%d", n), func(b *testing.B) {
			_, _, ctrl := benchLab(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctrl.Bootstrap(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("linkdown/N=%d", n), func(b *testing.B) {
			s, nw, ctrl := benchLab(b, n)
			link := fabricLinks(nw.Topology())[0]
			op := func() {
				for _, up := range []bool{false, true} {
					s.After(0, func(sim.Time) { nw.SetLinkState(link, up) })
					if err := s.RunUntilIdle(); err != nil {
						b.Fatal(err)
					}
				}
			}
			op() // warm the simulator's pools and the controller's scratch
			events, recomp := s.EventsRun(), ctrl.Recomputations()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			if got := ctrl.Recomputations() - recomp; got != 2*b.N {
				b.Fatalf("%d recomputations over %d ops, want 2 per op", got, b.N)
			}
			b.ReportMetric(float64(s.EventsRun()-events)/float64(b.N), "events/op")
		})
	}
}

func benchLab(tb testing.TB, n int) (*sim.Simulator, *network.Network, *Controller) {
	tb.Helper()
	tp, err := topo.F2Tree(n)
	if err != nil {
		tb.Fatal(err)
	}
	s := sim.New(7)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl := New(nw, Config{})
	if err := ctrl.Bootstrap(); err != nil {
		tb.Fatal(err)
	}
	return s, nw, ctrl
}

// TestLinkCycleAllocBudget caps a warmed fabric link failure and repair at
// N=8, each run to quiescence (two reports, two recomputations, two
// installs): every recomputation refills the batch the last install handed
// back, so what remains is the hop arrays the FIB copies changed routes
// into (776 allocations with a fresh batch per recomputation).
func TestLinkCycleAllocBudget(t *testing.T) {
	const budget = 100
	s, nw, ctrl := benchLab(t, 8)
	link := fabricLinks(nw.Topology())[0]
	cycle := func() {
		for _, up := range []bool{false, true} {
			nw.SetLinkState(link, up)
			if err := s.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	recomp := ctrl.Recomputations()
	got := testing.AllocsPerRun(5, cycle)
	if n := ctrl.Recomputations() - recomp; n != 2*6 {
		t.Fatalf("%d recomputations over 6 cycles, want 12", n)
	}
	if got > budget {
		t.Errorf("link fail and restore: %.0f allocs, budget %d", got, budget)
	}
}
