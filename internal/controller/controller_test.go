package controller

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

func buildLab(t *testing.T, tp *topo.Topology, cfg Config) (*sim.Simulator, *network.Network, *Controller) {
	t.Helper()
	s := sim.New(9)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := New(nw, cfg)
	if err := ctrl.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return s, nw, ctrl
}

func flowBetween(tp *topo.Topology, a, b topo.NodeID) fib.FlowKey {
	return fib.FlowKey{
		Src: tp.Node(a).Addr, Dst: tp.Node(b).Addr,
		Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9,
	}
}

func TestBootstrapGivesConnectivity(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	_, nw, _ := buildLab(t, tp, Config{})
	hosts := tp.NodesOfKind(topo.Host)
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if _, err := nw.PathTrace(a, flowBetween(tp, a, b)); err != nil {
				t.Fatalf("no path %s→%s: %v", tp.Node(a).Name, tp.Node(b).Name, err)
			}
		}
	}
}

// probeOutage measures the connectivity loss around a failure of the
// downward ToR–agg link on the probe's path.
func probeOutage(t *testing.T, tp *topo.Topology, nw *network.Network, s *sim.Simulator) time.Duration {
	t.Helper()
	hosts := tp.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := flowBetween(tp, src, dst)
	var arrivals []sim.Time
	nw.SetHostReceiver(dst, func(now sim.Time, pkt *network.Packet) {
		arrivals = append(arrivals, now)
	})
	stop := s.Ticker(time.Millisecond, func(sim.Time) {
		nw.SendFromHost(src, &network.Packet{Flow: flow, Size: 1488})
	})
	defer stop()
	failAt := 300 * sim.Millisecond
	s.At(failAt, func(sim.Time) {
		p, err := nw.PathTrace(src, flow)
		if err != nil {
			t.Errorf("trace: %v", err)
			return
		}
		nw.FailLink(p.Links[len(p.Links)-2])
	})
	if err := s.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 100 {
		t.Fatalf("only %d probes delivered", len(arrivals))
	}
	return metrics.ConnectivityLoss(arrivals, failAt, sim.Second)
}

func TestCentralizedRecoveryCostsControlLoop(t *testing.T) {
	// detect 60 ms + report 2 ms + compute 50 ms + install 20 ms ≈ 132 ms.
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	s, nw, ctrl := buildLab(t, tp, Config{})
	loss := probeOutage(t, tp, nw, s)
	if loss < 120*time.Millisecond || loss > 150*time.Millisecond {
		t.Fatalf("centralized recovery = %v, want ≈ 132 ms", loss)
	}
	if ctrl.Recomputations() == 0 {
		t.Fatal("controller never recomputed")
	}
}

func TestCentralizedCoalescesReports(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	s, nw, ctrl := buildLab(t, tp, Config{})
	// Fail three links at once: both endpoints of each report, but the
	// controller should run one recomputation.
	links := tp.LiveLinks()
	s.At(10*sim.Millisecond, func(sim.Time) {
		for _, l := range links[40:43] {
			nw.FailLink(l.ID)
		}
	})
	if err := s.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Recomputations(); got != 1 {
		t.Fatalf("recomputations = %d, want 1 (coalesced)", got)
	}
}

func TestCentralizedReconvergesOnRepair(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	s, nw, ctrl := buildLab(t, tp, Config{})
	hosts := tp.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := flowBetween(tp, src, dst)
	p, err := nw.PathTrace(src, flow)
	if err != nil {
		t.Fatal(err)
	}
	failed := p.Links[len(p.Links)-2]
	s.At(10*sim.Millisecond, func(sim.Time) { nw.FailLink(failed) })
	s.At(500*sim.Millisecond, func(sim.Time) { nw.RestoreLink(failed) })
	if err := s.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if ctrl.Recomputations() != 2 {
		t.Fatalf("recomputations = %d, want 2 (fail + repair)", ctrl.Recomputations())
	}
	if _, err := nw.PathTrace(src, flow); err != nil {
		t.Fatalf("no path after repair: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ReportDelay == 0 || cfg.ComputeDelay == 0 || cfg.InstallDelay == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	custom := Config{ComputeDelay: time.Second}.withDefaults()
	if custom.ComputeDelay != time.Second || custom.ReportDelay == 0 {
		t.Fatal("partial defaults broken")
	}
}

// TestOverlappingRecomputationsInstallTheirOwn: with ComputeDelay below
// InstallDelay a second recomputation runs while the first one's batch
// still waits for its install. computeAll refills only a batch that has
// been installed, so the first install lands the routes of the first
// recomputation, not the second's.
func TestOverlappingRecomputationsInstallTheirOwn(t *testing.T) {
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ComputeDelay: time.Millisecond, InstallDelay: 20 * time.Millisecond}
	routes := func(nw *network.Network, ctrl *Controller) string {
		st := routeState(nw, ctrl)
		return st[strings.IndexByte(st, '\n')+1:] // without the recomputation count
	}
	settled := func(failed ...topo.LinkID) string {
		s, nw, ctrl := buildLab(t, tp, cfg)
		for _, l := range failed {
			nw.FailLink(l)
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return routes(nw, ctrl)
	}
	fabric := fabricLinks(tp)
	a, b := fabric[0], topo.LinkID(topo.None)
	onlyA, both := settled(a), ""
	for _, l := range fabric[1:] { // a second link whose failure changes routes
		if both = settled(a, l); both != onlyA {
			b = l
			break
		}
	}
	if b == topo.None {
		t.Fatal("no second link changes a route")
	}

	s, nw, ctrl := buildLab(t, tp, cfg)
	before := routes(nw, ctrl)
	nw.FailLink(a)
	s.At(5*sim.Millisecond, func(sim.Time) { nw.FailLink(b) })
	for now := sim.Time(0); routes(nw, ctrl) == before; {
		if now += sim.Millisecond; now > sim.Second {
			t.Fatal("no install within 1 s")
		}
		if err := s.Run(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctrl.Recomputations(); got != 2 {
		t.Fatalf("%d recomputations by the first install, want 2 (the second in flight)", got)
	}
	if routes(nw, ctrl) != onlyA {
		t.Error("the first install did not land its own recomputation's routes")
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if routes(nw, ctrl) != both {
		t.Error("the second install did not land its own recomputation's routes")
	}
}
