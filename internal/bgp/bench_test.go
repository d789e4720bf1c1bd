package bgp

import (
	"fmt"
	"testing"

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

func newBGPBench(tb testing.TB, tp *topo.Topology) *bgpBench {
	tb.Helper()
	s, nw := benchNetwork(tb, tp)
	dom := NewDomain(nw, Config{})
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

// BenchmarkBGP measures the host cost of the three things a BGP lab does
// on an F²Tree(N): converge from nothing (NewDomain + Bootstrap on a ready
// network), reconverge around one ToR–agg link failing and coming back,
// and absorb the withdraw storm of a ToR speaker crashing and restarting
// without graceful restart. Each op runs the simulator to quiescence, so
// ns/op includes the event core and FIB installs the protocol causes.
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
			bb := newBGPBench(b, tp)
			tor := tp.NodesOfKind(topo.ToR)[0]
			var link topo.LinkID = topo.None
			for _, l := range tp.LinksOf(tor) {
				if other, _ := l.Other(tor); tp.Node(other).Kind == topo.Agg {
					link = l.ID
					break
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bb.nw.FailLink(link)
				bb.settle(b)
				bb.nw.RestoreLink(link)
				bb.settle(b)
			}
		}},
		{"withdraw-storm", func(b *testing.B, tp *topo.Topology) {
			bb := newBGPBench(b, tp)
			tor := tp.NodesOfKind(topo.ToR)[0]
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bb.dom.SetNodeDown(bb.s.Now(), tor, true)
				bb.settle(b)
				bb.dom.SetNodeDown(bb.s.Now(), tor, false)
				bb.settle(b)
			}
		}},
	}
	for _, k := range kinds {
		for _, n := range []int{8, 12, 16} {
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
