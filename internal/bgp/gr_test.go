package bgp

import (
	"testing"
	"time"

	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// grFixture converges a fat tree under the given config and resolves the
// pieces the GR tests poke at: a cross-pod host pair, the destination's
// ToR, one of its aggs, and the agg↔ToR session link.
type grFixture struct {
	s   *sim.Simulator
	nw  *network.Network
	d   *Domain
	tp  *topo.Topology
	src topo.NodeID
	dst topo.NodeID
	tor topo.NodeID // dst's ToR (the speaker the tests crash)
	agg topo.NodeID // a GR helper adjacent to tor
	sl  topo.LinkID // the agg↔tor session link
	sub netaddr.Prefix
}

func newGRFixture(t *testing.T, cfg Config) *grFixture {
	t.Helper()
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	s, nw, d := buildBGP(t, tp, cfg)
	hosts := tp.NodesOfKind(topo.Host)
	f := &grFixture{s: s, nw: nw, d: d, tp: tp, src: hosts[0], dst: hosts[len(hosts)-1]}
	torLink := tp.LinksOf(f.dst)[0]
	f.tor, _ = torLink.Other(f.dst)
	for _, l := range tp.LinksOf(f.tor) {
		other, _ := l.Other(f.tor)
		if tp.Node(other).Kind == topo.Agg {
			f.agg, f.sl = other, l.ID
			break
		}
	}
	if f.agg == topo.None {
		t.Fatal("dst ToR has no agg neighbor")
	}
	f.sub = tp.Node(f.tor).Subnet
	return f
}

// aggHasRoute reports whether the helper agg still selects a route for
// the crashed ToR's subnet.
func (f *grFixture) aggHasRoute() bool {
	return f.d.Instance(f.agg).locRib[f.d.ordinals[f.sub]].offer != nil
}

func (f *grFixture) aggSession() *session {
	inst := f.d.Instance(f.agg)
	for k := range inst.sessions {
		if inst.sessions[k].link == f.sl {
			return &inst.sessions[k]
		}
	}
	return nil
}

func (f *grFixture) pathWorks() bool {
	_, err := f.nw.PathTrace(f.src, flowBetween(f.tp, f.src, f.dst))
	return err == nil
}

func (f *grFixture) runTo(t *testing.T, until sim.Time) {
	t.Helper()
	if err := f.s.Run(until); err != nil {
		t.Fatal(err)
	}
}

// TestGRRetainsThroughCrashThenFlushesOnExpiry: a GR helper keeps the
// crashed speaker's routes at full preference until RestartTime, so
// persist-on-crash forwarding keeps working; with no restart, expiry
// flushes the stale routes.
func TestGRRetainsThroughCrashThenFlushesOnExpiry(t *testing.T) {
	f := newGRFixture(t, Config{GracefulRestart: true})
	f.s.At(100*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })

	f.runTo(t, 1*sim.Second) // mid-retention: 0.9 s into the 2 s timer
	if !f.aggHasRoute() || !f.aggSession().retained {
		t.Fatal("helper dropped the crashed ToR's route inside the GR window")
	}
	if !f.pathWorks() {
		t.Fatal("persist-on-crash forwarding broken inside the GR window")
	}

	f.runTo(t, 3*sim.Second) // past 100 ms + 2 s expiry
	if f.aggHasRoute() {
		t.Fatal("stale route survived GR timer expiry without a restart")
	}
	if s := f.aggSession(); s.retained || s.stale != nil {
		t.Fatalf("helper state not cleared at expiry: %+v", s)
	}
}

// TestPlainBGPWithdrawsOnCrash is the no-GR contrast: the same crash
// withdraws the routes as soon as the withdrawal propagates.
func TestPlainBGPWithdrawsOnCrash(t *testing.T) {
	f := newGRFixture(t, Config{})
	f.s.At(100*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })
	f.runTo(t, 1*sim.Second)
	if f.aggHasRoute() {
		t.Fatal("without GR the helper should have withdrawn the crashed ToR's route")
	}
}

// TestGRRestartBeforeExpiryResyncs: a restart inside the window
// re-advertises, the EOR flushes nothing that was refreshed, and the
// expiry timer armed at crash time must not fire on the resynced state.
func TestGRRestartBeforeExpiryResyncs(t *testing.T) {
	f := newGRFixture(t, Config{GracefulRestart: true})
	f.s.At(100*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })
	f.s.At(600*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, false) })
	f.runTo(t, 4*sim.Second) // well past the (now-invalidated) 2.1 s expiry
	if !f.aggHasRoute() {
		t.Fatal("route lost despite restart inside the GR window")
	}
	if s := f.aggSession(); !s.up || s.retained || !s.stale.empty() {
		t.Fatalf("session not cleanly resynced: %+v", s)
	}
	if !f.pathWorks() {
		t.Fatal("forwarding broken after GR resync")
	}
}

// TestGRBackToBackCrashes: two crash/restart cycles in quick succession;
// the first cycle's expiry timer must be epoch-invalidated and never
// flush the second cycle's state.
func TestGRBackToBackCrashes(t *testing.T) {
	f := newGRFixture(t, Config{GracefulRestart: true, RestartTime: 500 * time.Millisecond})
	f.s.At(100*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })
	f.s.At(300*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, false) })
	f.s.At(400*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })
	f.s.At(700*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, false) })
	f.runTo(t, 4*sim.Second)
	if !f.aggHasRoute() {
		t.Fatal("route lost across back-to-back GR cycles")
	}
	if s := f.aggSession(); !s.up || s.retained || !s.stale.empty() {
		t.Fatalf("session dirty after back-to-back cycles: %+v", s)
	}
	if !f.pathWorks() {
		t.Fatal("forwarding broken after back-to-back GR cycles")
	}
}

// TestLLGRDepreferencesThenFlushes: with LLGR, RestartTime expiry
// depreferences the stale route (kept as a last resort — the ToR is the
// subnet's only origin) and only LLGRStaleTime later flushes it.
func TestLLGRDepreferencesThenFlushes(t *testing.T) {
	f := newGRFixture(t, Config{
		GracefulRestart: true,
		RestartTime:     500 * time.Millisecond,
		LongLived:       true,
		LLGRStaleTime:   1 * time.Second,
	})
	f.s.At(100*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })

	f.runTo(t, 1*sim.Second) // past 0.6 s depreference, inside LLGR
	if !f.aggHasRoute() {
		t.Fatal("LLGR flushed the last-resort route at RestartTime")
	}
	if s := f.aggSession(); !s.depreferenced {
		t.Fatalf("stale route not depreferenced after RestartTime: %+v", s)
	}
	if !f.pathWorks() {
		t.Fatal("last-resort forwarding broken under LLGR")
	}

	f.runTo(t, 2*sim.Second) // past 0.6 s + 1 s LLGR flush
	if f.aggHasRoute() {
		t.Fatal("stale route survived LLGR expiry")
	}
}

// TestGRWithMRAIResyncs: a restart under a coarse MRAI still resyncs —
// the re-advertisement is paced, the EOR arrives after it, and no stale
// state leaks.
func TestGRWithMRAIResyncs(t *testing.T) {
	f := newGRFixture(t, Config{GracefulRestart: true, MRAI: 500 * time.Millisecond})
	f.s.At(100*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, true) })
	f.s.At(400*sim.Millisecond, func(now sim.Time) { f.d.SetNodeDown(now, f.tor, false) })
	f.runTo(t, 6*sim.Second)
	if !f.aggHasRoute() {
		t.Fatal("route lost after GR resync under MRAI")
	}
	if s := f.aggSession(); !s.up || s.retained || !s.stale.empty() {
		t.Fatalf("stale state leaked under MRAI pacing: %+v", s)
	}
	if !f.pathWorks() {
		t.Fatal("forwarding broken after GR resync under MRAI")
	}
}
