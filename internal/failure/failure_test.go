package failure

import (
	"reflect"
	"testing"

	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
)

// build returns a bootstrapped network over the given topology.
func build(t *testing.T, tp *topo.Topology) (*sim.Simulator, *network.Network) {
	t.Helper()
	s := sim.New(11)
	nw, err := network.New(s, tp, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ospf.NewDomain(nw, ospf.Config{}).Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return s, nw
}

// interPodPath traces leftmost→rightmost host.
func interPodPath(t *testing.T, nw *network.Network) network.Path {
	t.Helper()
	hosts := nw.Topology().NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := fib.FlowKey{
		Src: nw.Topology().Node(src).Addr, Dst: nw.Topology().Node(dst).Addr,
		Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9,
	}
	p, err := nw.PathTrace(src, flow)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConditionLinksOnF2Tree(t *testing.T) {
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	_, nw := build(t, tp)
	path := interPodPath(t, nw)

	wantCount := map[Condition]int{
		C1: 1, C2: 1, C3: 2, C4: 2,
		C5: 3, // 4 aggs in the pod, all but the left across neighbor
		C6: 2, C7: 3,
	}
	for _, cond := range AllConditions() {
		links, err := ConditionLinks(tp, cond, path)
		if err != nil {
			t.Fatalf("%v: %v", cond, err)
		}
		if len(links) != wantCount[cond] {
			t.Errorf("%v: %d links, want %d", cond, len(links), wantCount[cond])
		}
		// No duplicates.
		seen := map[topo.LinkID]bool{}
		for _, id := range links {
			if seen[id] {
				t.Errorf("%v: duplicate link %d", cond, id)
			}
			seen[id] = true
		}
	}

	// C6 and C7 must include an across link; C1–C5 must not.
	hasAcross := func(cond Condition) bool {
		links, err := ConditionLinks(tp, cond, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range links {
			if tp.Link(id).Class == topo.AcrossLink {
				return true
			}
		}
		return false
	}
	for _, cond := range []Condition{C1, C2, C3, C4, C5} {
		if hasAcross(cond) {
			t.Errorf("%v should not touch across links", cond)
		}
	}
	for _, cond := range []Condition{C6, C7} {
		if !hasAcross(cond) {
			t.Errorf("%v must fail an across link", cond)
		}
	}
}

func TestConditionLinksOnFatTree(t *testing.T) {
	tp, err := topo.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	_, nw := build(t, tp)
	path := interPodPath(t, nw)
	for _, cond := range []Condition{C1, C2, C3, C4, C5} {
		if _, err := ConditionLinks(tp, cond, path); err != nil {
			t.Errorf("%v on fat tree: %v", cond, err)
		}
		if !cond.FatTreeApplicable() {
			t.Errorf("%v should be fat-tree applicable", cond)
		}
	}
	for _, cond := range []Condition{C6, C7} {
		if _, err := ConditionLinks(tp, cond, path); err == nil {
			t.Errorf("%v should fail on fat tree (no across links)", cond)
		}
		if cond.FatTreeApplicable() {
			t.Errorf("%v should not be fat-tree applicable", cond)
		}
	}
}

func TestConditionMetadata(t *testing.T) {
	if len(AllConditions()) != 7 {
		t.Fatal("want 7 conditions")
	}
	wantPaper := map[Condition]int{C1: 1, C2: 1, C3: 1, C4: 2, C5: 2, C6: 3, C7: 4}
	for c, w := range wantPaper {
		if got := c.PaperCondition(); got != w {
			t.Errorf("%v paper condition = %d, want %d", c, got, w)
		}
		if c.Describe() == "unknown" || c.String() == "" {
			t.Errorf("%v lacks description", c)
		}
	}
	if Condition(99).PaperCondition() != 0 {
		t.Error("invalid condition should map to 0")
	}
}

func TestParseCondition(t *testing.T) {
	for _, c := range AllConditions() {
		got, err := ParseCondition(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCondition(%s) = %v, %v", c, got, err)
		}
	}
	if got, err := ParseCondition("c3"); err != nil || got != C3 {
		t.Fatalf("ParseCondition(c3) = %v, %v", got, err)
	}
	for _, bad := range []string{"C0", "C8", "", "C10", "C", "D1", "C/", "banana"} {
		if got, err := ParseCondition(bad); err == nil {
			t.Errorf("ParseCondition(%q) = %v, want error", bad, got)
		}
	}
}

func TestLinksOnPathFollowsTheFlow(t *testing.T) {
	// LinksOnPath is ConditionLinks on whatever PathTrace returns now.
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	_, nw := build(t, tp)
	hosts := tp.NodesOfKind(topo.Host)
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := fib.FlowKey{Src: tp.Node(src).Addr, Dst: tp.Node(dst).Addr, Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9}
	path, err := nw.PathTrace(src, flow)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ConditionLinks(tp, C4, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LinksOnPath(nw, C4, src, flow)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("LinksOnPath = %v, %v; want %v", got, err, want)
	}
	// A flow to nowhere has no path, so no links.
	flow.Dst = 0
	if _, err := LinksOnPath(nw, C1, src, flow); err == nil {
		t.Fatal("unroutable flow accepted")
	}
}

func TestConditionLinksRejectsShortPath(t *testing.T) {
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	_, nw := build(t, tp)
	// Intra-ToR path: host → tor → host.
	tor := tp.NodesOfKind(topo.ToR)[0]
	hosts := tp.HostsUnder(tor)
	flow := fib.FlowKey{
		Src: tp.Node(hosts[0]).Addr, Dst: tp.Node(hosts[1]).Addr,
		Proto: network.ProtoUDP, SrcPort: 1, DstPort: 2,
	}
	p, err := nw.PathTrace(hosts[0], flow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConditionLinks(tp, C1, p); err == nil {
		t.Fatal("short path accepted")
	}
}

func TestInjectSchedulesFailures(t *testing.T) {
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	s, nw := build(t, tp)
	path := interPodPath(t, nw)
	links, err := ConditionLinks(tp, C3, path)
	if err != nil {
		t.Fatal(err)
	}
	Inject(nw, links, 100*sim.Millisecond)
	if err := s.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, id := range links {
		if nw.LinkUp(id) {
			t.Fatalf("link %d still up after Inject", id)
		}
	}
}

func TestRandomProcessGeneratesAndRepairs(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	s, nw := build(t, tp)
	cfg, err := DefaultRandomConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := s.Run(600 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// The paper reports ≈ 40 failures in 600 s at 1 concurrent failure.
	if p.Count() < 20 || p.Count() > 80 {
		t.Fatalf("failures = %d, want ≈ 40", p.Count())
	}
	p.Stop()
	if err := s.Run(700 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if p.Active() != 0 {
		t.Fatalf("%d links still failed after stop+drain", p.Active())
	}
}

func TestRandomProcessChannelsScaleConcurrency(t *testing.T) {
	tp, err := topo.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	s, nw := build(t, tp)
	cfg, err := DefaultRandomConfig(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxActive := 0
	stop := nw.Sim().Ticker(sim.Time(1*sim.Second).Duration(), func(sim.Time) {
		if p.Active() > maxActive {
			maxActive = p.Active()
		}
	})
	defer stop()
	p.Start()
	if err := s.Run(600 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if p.Count() < 60 {
		t.Fatalf("failures = %d, want ≈ 100+", p.Count())
	}
	if maxActive < 2 {
		t.Fatalf("max concurrent failures = %d, want ≥ 2", maxActive)
	}
}

// TestStopCancelsPendingEvents is the regression test for the Stop bug:
// Stop used to only set a flag, leaving the already-scheduled
// inter-failure waits in the queue — the simulator could not quiesce
// until the last sampled wait (potentially minutes of virtual time)
// elapsed as a dead event. Stop must Cancel the outstanding handles.
func TestStopCancelsPendingEvents(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	s, nw := build(t, tp)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	idle := s.Now()

	cfg, err := DefaultRandomConfig(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Stop()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != idle {
		t.Fatalf("clock advanced %v past stop: pending failure events not canceled",
			(s.Now() - idle).Duration())
	}
	if p.Count() != 0 {
		t.Fatalf("%d failures injected after Stop", p.Count())
	}

	// Stopping mid-run keeps the repair invariant: no link stays failed.
	p2, err := NewProcess(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2.Start()
	if err := s.Run(s.Now() + 120*sim.Second); err != nil {
		t.Fatal(err)
	}
	p2.Stop()
	stopAt := s.Now()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if p2.Active() != 0 {
		t.Fatalf("%d links still failed after stop+drain", p2.Active())
	}
	// Only in-flight repairs may remain: the drain is bounded by a repair
	// duration, not by the next inter-failure wait of every channel.
	if s.Now()-stopAt > 300*sim.Second {
		t.Fatalf("drain took %v of virtual time", (s.Now() - stopAt).Duration())
	}
}

func TestRandomProcessRejectsBadConfig(t *testing.T) {
	tp, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	_, nw := build(t, tp)
	if _, err := NewProcess(nw, RandomConfig{Channels: 0}); err == nil {
		t.Fatal("0 channels accepted")
	}
	cfg, err := DefaultRandomConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Classes = []topo.LinkClass{topo.AcrossLink} // none in a fat tree
	if _, err := NewProcess(nw, cfg); err == nil {
		t.Fatal("no-candidate config accepted")
	}
}
