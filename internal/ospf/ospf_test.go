package ospf

import (
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// lab bundles a bootstrapped fat tree network.
type lab struct {
	sim  *sim.Simulator
	topo *topo.Topology
	nw   *network.Network
	dom  *Domain
}

func newFatTreeLab(t *testing.T, n int, cfg Config) *lab {
	t.Helper()
	tp, err := topo.FatTree(n)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(7)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dom := NewDomain(nw, cfg)
	if err := dom.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return &lab{sim: s, topo: tp, nw: nw, dom: dom}
}

// lsaOf returns the LSA an instance holds from origin n, nil for none (and
// for hosts, which originate none).
func (i *Instance) lsaOf(n topo.NodeID) *LSA {
	if o := i.d.sw.Ordinal(n); o != topo.None {
		return i.lsdb[o]
	}
	return nil
}

func (l *lab) flowBetween(a, b topo.NodeID) fib.FlowKey {
	return fib.FlowKey{
		Src: l.topo.Node(a).Addr, Dst: l.topo.Node(b).Addr,
		Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9,
	}
}

func TestBootstrapGivesAllPairsConnectivity(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	hosts := l.topo.NodesOfKind(topo.Host)
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			p, err := l.nw.PathTrace(a, l.flowBetween(a, b))
			if err != nil {
				t.Fatalf("no path %s→%s: %v", l.topo.Node(a).Name, l.topo.Node(b).Name, err)
			}
			// Fat tree paths: 2 hops same ToR, 4 same pod, 6 inter-pod
			// (counting links, host links included).
			if h := p.Hops(); h != 2 && h != 4 && h != 6 {
				t.Fatalf("path %s→%s has %d hops", l.topo.Node(a).Name, l.topo.Node(b).Name, h)
			}
		}
	}
}

func TestBootstrapInstallsECMP(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	// A ToR's route to a remote subnet must have n/2 = 2 next hops.
	tor := l.topo.FindNode("tor-p0-0")
	remote := l.topo.FindNode("tor-p3-1")
	for _, r := range l.nw.Table(tor.ID).Routes() {
		if r.Prefix == remote.Subnet {
			if len(r.NextHops) != 2 {
				t.Fatalf("ECMP width = %d, want 2: %+v", len(r.NextHops), r)
			}
			return
		}
	}
	t.Fatal("route to remote subnet missing")
}

// probeRecovery sends a probe packet on a fixed flow every interval and
// returns the largest gap between consecutive deliveries (by send time).
func probeRecovery(t *testing.T, l *lab, src, dst topo.NodeID, failAt sim.Time, pick func() topo.LinkID, horizon sim.Time) time.Duration {
	t.Helper()
	flow := l.flowBetween(src, dst)
	const interval = time.Millisecond
	var delivered []sim.Time
	l.nw.SetHostReceiver(dst, func(_ sim.Time, pkt *network.Packet) {
		delivered = append(delivered, pkt.SentAt)
	})
	stop := l.sim.Ticker(interval, func(now sim.Time) {
		l.nw.SendFromHost(src, &network.Packet{Flow: flow, Size: 1488})
	})
	defer stop()
	l.sim.At(failAt, func(sim.Time) { l.nw.FailLink(pick()) })
	if err := l.sim.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if len(delivered) < 10 {
		t.Fatalf("only %d probes delivered", len(delivered))
	}
	var maxGap time.Duration
	for i := 1; i < len(delivered); i++ {
		if g := delivered[i].Sub(delivered[i-1]); g > maxGap {
			maxGap = g
		}
	}
	return maxGap
}

func TestFatTreeDownwardFailureRecoversViaSPF(t *testing.T) {
	// The paper's §I anatomy: 60 ms detect + LSA flood + 200 ms SPF delay
	// + 10 ms FIB install ≈ 272 ms of connectivity loss.
	l := newFatTreeLab(t, 4, Config{})
	hosts := l.topo.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := l.flowBetween(src, dst)
	pick := func() topo.LinkID {
		p, err := l.nw.PathTrace(src, flow)
		if err != nil {
			t.Fatal(err)
		}
		// The downward ToR–agg link is the second-to-last link.
		return p.Links[len(p.Links)-2]
	}
	gap := probeRecovery(t, l, src, dst, 380*sim.Millisecond, pick, 2*sim.Second)
	if gap < 250*time.Millisecond || gap > 320*time.Millisecond {
		t.Fatalf("fat tree recovery gap = %v, want ≈ 272 ms", gap)
	}
}

func TestFatTreeUpwardFailureRecoversViaECMPInstantly(t *testing.T) {
	// Upward failures are repaired by ECMP elimination at detection time:
	// gap ≈ 60 ms, no SPF wait.
	l := newFatTreeLab(t, 4, Config{})
	hosts := l.topo.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := l.flowBetween(src, dst)
	pick := func() topo.LinkID {
		p, err := l.nw.PathTrace(src, flow)
		if err != nil {
			t.Fatal(err)
		}
		// The first ToR→agg upward link is the second link.
		return p.Links[1]
	}
	gap := probeRecovery(t, l, src, dst, 380*sim.Millisecond, pick, 2*sim.Second)
	if gap < 55*time.Millisecond || gap > 80*time.Millisecond {
		t.Fatalf("upward recovery gap = %v, want ≈ 60 ms", gap)
	}
}

func TestRecoveredRouteAvoidsFailedAgg(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	hosts := l.topo.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := l.flowBetween(src, dst)
	p, err := l.nw.PathTrace(src, flow)
	if err != nil {
		t.Fatal(err)
	}
	failed := p.Links[len(p.Links)-2]
	l.sim.After(0, func(sim.Time) { l.nw.FailLink(failed) })
	if err := l.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	p2, err := l.nw.PathTrace(src, flow)
	if err != nil {
		t.Fatalf("no path after convergence: %v", err)
	}
	for _, lk := range p2.Links {
		if lk == failed {
			t.Fatal("converged path still uses failed link")
		}
	}
	if p2.Hops() != 6 {
		t.Fatalf("converged inter-pod path hops = %d, want 6", p2.Hops())
	}
}

func TestLinkRestoreReconverges(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	hosts := l.topo.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := l.flowBetween(src, dst)
	p, err := l.nw.PathTrace(src, flow)
	if err != nil {
		t.Fatal(err)
	}
	failed := p.Links[len(p.Links)-2]
	l.sim.After(0, func(sim.Time) { l.nw.FailLink(failed) })
	l.sim.At(3*sim.Second, func(sim.Time) { l.nw.RestoreLink(failed) })
	if err := l.sim.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// The restored link must be usable again: the original ECMP width is
	// back at the destination agg layer.
	p2, err := l.nw.PathTrace(src, flow)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Hops() != 6 {
		t.Fatalf("post-restore hops = %d", p2.Hops())
	}
	tor := l.topo.Node(dst)
	_ = tor
	inst := l.dom.Instance(l.topo.FindNode("agg-p0-0").ID)
	if inst.SPFRuns() < 2 {
		t.Fatalf("agg ran %d SPFs, want ≥ 2 (fail + restore)", inst.SPFRuns())
	}
}

func TestSPFThrottleBacksOffUnderChurn(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	// Flap a link every 400 ms for 12 s: triggers keep arriving inside the
	// hold window, so holds double 1s → 2s → 4s → 8s → 10s and observed
	// trigger→run waits grow into seconds (paper §IV-B: ~9 s timers).
	link := l.topo.LiveLinks()[40].ID
	up := false
	stop := l.sim.Ticker(400*time.Millisecond, func(now sim.Time) {
		l.nw.SetLinkState(link, up)
		up = !up
	})
	defer stop()
	if err := l.sim.Run(14 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var maxWait time.Duration
	var runs int
	for _, id := range l.topo.NodesOfKind(topo.Agg) {
		inst := l.dom.Instance(id)
		if w := inst.MaxSPFWait(); w > maxWait {
			maxWait = w
		}
		runs += inst.SPFRuns()
	}
	if maxWait < 2*time.Second {
		t.Fatalf("max SPF wait = %v, want ≥ 2s (throttle backoff)", maxWait)
	}
	// Throttle bounds the number of SPF runs well below the trigger count.
	perAgg := runs / len(l.topo.NodesOfKind(topo.Agg))
	if perAgg > 12 {
		t.Fatalf("aggs ran %d SPFs on average; throttle not limiting", perAgg)
	}
}

func TestDisableThrottleAblation(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{DisableThrottle: true})
	link := l.topo.LiveLinks()[40].ID
	up := false
	stop := l.sim.Ticker(400*time.Millisecond, func(now sim.Time) {
		l.nw.SetLinkState(link, up)
		up = !up
	})
	defer stop()
	if err := l.sim.Run(14 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var maxWait time.Duration
	for _, id := range l.topo.NodesOfKind(topo.Agg) {
		if w := l.dom.Instance(id).MaxSPFWait(); w > maxWait {
			maxWait = w
		}
	}
	if maxWait > 500*time.Millisecond {
		t.Fatalf("throttle disabled but max wait = %v", maxWait)
	}
}

func TestLSDBConvergesEverywhere(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	p := l.topo.LiveLinks()[30]
	l.sim.After(0, func(sim.Time) { l.nw.FailLink(p.ID) })
	if err := l.sim.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Every switch's LSDB must agree that the failed link's endpoints no
	// longer advertise each other over it.
	for _, nid := range l.topo.NodesOfKind(topo.Agg) {
		inst := l.dom.Instance(nid)
		for _, end := range []topo.NodeID{p.A, p.B} {
			lsa := inst.lsaOf(end)
			if lsa == nil {
				// Host endpoints are not routers.
				if l.topo.Node(end).Kind == topo.Host {
					continue
				}
				t.Fatalf("LSDB of %s missing LSA of %s", l.topo.Node(nid).Name, l.topo.Node(end).Name)
			}
			for _, a := range lsa.Adjacencies {
				if a.Link == p.ID {
					t.Fatalf("%s still believes link %d up in %s's LSA",
						l.topo.Node(nid).Name, p.ID, l.topo.Node(end).Name)
				}
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SPFDelay != 200*time.Millisecond || cfg.SPFHoldMax != 10*time.Second {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.DisableThrottle {
		t.Fatal("throttle should default on")
	}
}

func TestSPFCountsAndLSDBSize(t *testing.T) {
	l := newFatTreeLab(t, 4, Config{})
	inst := l.dom.Instance(l.topo.FindNode("agg-p0-0").ID)
	if inst.LSDBSize() != l.topo.SwitchCount() {
		t.Fatalf("LSDB size = %d, want %d", inst.LSDBSize(), l.topo.SwitchCount())
	}
	if inst.SPFRuns() != 1 {
		t.Fatalf("bootstrap SPF runs = %d, want 1", inst.SPFRuns())
	}
}
