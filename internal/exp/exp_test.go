package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

func TestBuildTopologyAllSchemes(t *testing.T) {
	cases := []struct {
		s Scheme
		n int
	}{
		{SchemeFatTree, 4}, {SchemeF2Tree, 8}, {SchemeF2Proto, 4},
		{SchemeF2Wide, 10}, {SchemeLeafSpine, 8}, {SchemeF2LeafSpine, 8},
		{SchemeVL2, 8}, {SchemeF2VL2, 8},
	}
	for _, c := range cases {
		tp, err := BuildTopology(c.s, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.s, err)
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", c.s, err)
		}
	}
	if _, err := BuildTopology("bogus", 4); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestAllSchemesBootstrapAndForward(t *testing.T) {
	// Every buildable scheme must come up converged under every control
	// plane and forward between sampled host pairs.
	cases := []struct {
		s Scheme
		n int
	}{
		{SchemeFatTree, 4}, {SchemeF2Tree, 6}, {SchemeF2Proto, 4},
		{SchemeF2Wide, 10}, {SchemeLeafSpine, 8}, {SchemeF2LeafSpine, 8},
		{SchemeVL2, 8}, {SchemeF2VL2, 8}, {SchemeAspen, 8},
	}
	for _, planeName := range []string{"ospf", "bgp", "centralized"} {
		for _, c := range cases {
			lab, err := NewLab(LabSpec{Scheme: c.s, Ports: c.n, Control: planeName, Seed: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", planeName, c.s, err)
			}
			hosts := lab.Topo.NodesOfKind(topo.Host)
			for i := 0; i < len(hosts); i += 3 {
				j := len(hosts) - 1 - i
				if hosts[i] == hosts[j] {
					continue
				}
				flow := fib.FlowKey{
					Src: lab.Topo.Node(hosts[i]).Addr, Dst: lab.Topo.Node(hosts[j]).Addr,
					Proto: network.ProtoUDP, SrcPort: uint16(50000 + i), DstPort: 9,
				}
				if _, err := lab.Net.PathTrace(hosts[i], flow); err != nil {
					t.Fatalf("%s/%s: %s→%s: %v", planeName, c.s,
						lab.Topo.Node(hosts[i]).Name, lab.Topo.Node(hosts[j]).Name, err)
				}
			}
		}
	}
}

func TestRunFig2Table3ReproducesPaperShape(t *testing.T) {
	res, err := RunFig2Table3(42)
	if err != nil {
		t.Fatal(err)
	}
	ft, f2 := res.FatTree, res.F2Tree

	// Table III shape: fat tree ≈ 272 ms loss, F²Tree ≈ 60 ms.
	if ft.ConnectivityLoss < 250*time.Millisecond || ft.ConnectivityLoss > 320*time.Millisecond {
		t.Fatalf("fat tree loss = %v, want ≈ 272 ms", ft.ConnectivityLoss)
	}
	if f2.ConnectivityLoss < 55*time.Millisecond || f2.ConnectivityLoss > 80*time.Millisecond {
		t.Fatalf("F²Tree loss = %v, want ≈ 60 ms", f2.ConnectivityLoss)
	}
	reduction := 1 - float64(f2.ConnectivityLoss)/float64(ft.ConnectivityLoss)
	if reduction < 0.70 || reduction > 0.85 {
		t.Fatalf("reduction = %.2f, paper reports 0.78", reduction)
	}
	// Packet loss scales with outage (paper: 1302 vs 310, −75 %).
	if f2.PacketsLost == 0 || ft.PacketsLost == 0 {
		t.Fatal("expected losses on both schemes")
	}
	lossCut := 1 - float64(f2.PacketsLost)/float64(ft.PacketsLost)
	if lossCut < 0.6 || lossCut > 0.9 {
		t.Fatalf("packet-loss reduction = %.2f, paper reports 0.75", lossCut)
	}
	// TCP collapse: fat tree ≈ 700 ms (60+200 outage + doubled RTO),
	// F²Tree ≈ 220 ms.
	if ft.CollapseDuration < 500*time.Millisecond || ft.CollapseDuration > 900*time.Millisecond {
		t.Fatalf("fat tree collapse = %v, want ≈ 700 ms", ft.CollapseDuration)
	}
	if f2.CollapseDuration < 150*time.Millisecond || f2.CollapseDuration > 350*time.Millisecond {
		t.Fatalf("F²Tree collapse = %v, want ≈ 220 ms", f2.CollapseDuration)
	}
	// Renderers produce output.
	if !strings.Contains(res.Table3String(), "F2Tree") {
		t.Fatal("Table3String malformed")
	}
	if len(strings.Split(res.Fig2String(), "\n")) < 50 {
		t.Fatal("Fig2String too short")
	}
}

func TestTable1AndTable4Strings(t *testing.T) {
	s, err := Table1String(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fat tree", "F2Tree", "Aspen", "F10", "DDC", "VL2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
	t4 := Table4String()
	for _, c := range failure.AllConditions() {
		if !strings.Contains(t4, c.String()) {
			t.Fatalf("Table IV missing %v", c)
		}
	}
}

func TestRunRecoveryF2TreeEmulationC1(t *testing.T) {
	res, err := RunRecovery(RecoveryOptions{
		Scheme: SchemeF2Tree, Ports: 8, Condition: failure.C1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConnectivityLoss < 55*time.Millisecond || res.ConnectivityLoss > 80*time.Millisecond {
		t.Fatalf("loss = %v, want ≈ 60 ms", res.ConnectivityLoss)
	}
	if len(res.Delays) == 0 || len(res.UDPBins) == 0 || len(res.TCPBins) == 0 {
		t.Fatal("missing series")
	}
}

func TestRunPartitionAggregateSmall(t *testing.T) {
	// A scaled-down Fig 6 cell: healthy completion dominates, misses stay
	// rare but measurable machinery works.
	res, err := RunPartitionAggregate(PAOptions{
		Scheme: SchemeF2Tree, Ports: 8, Channels: 1,
		Duration: 30 * sim.Second, Seed: 3,
		PA: workload.PartitionAggregateConfig{
			Workers: 8, RequestBytes: 100, ResponseBytes: 2000,
			MeanInterval: 100 * time.Millisecond, Requests: 200,
		},
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 150 {
		t.Fatalf("requests = %d, want ≈ 200", res.Requests)
	}
	if res.Completed < res.Requests*9/10 {
		t.Fatalf("completed %d of %d", res.Completed, res.Requests)
	}
	if res.Fmt() == "" {
		t.Fatal("empty Fmt")
	}
}

// TestRunPartitionAggregateRepeatsInProcess runs one partition-aggregate
// cell twice in the same process: the JSON reports, completion times
// included, must be byte-equal. Every arrival, fan-out and failure draw
// must come from the run's seeded RNG; one drawn from math/rand's global
// source (seeded per process) makes the two runs differ. Requests arrive
// every 2 ms on average and overlap, so completion times depend on the
// arrival spacing: on an idle fabric they would not.
func TestRunPartitionAggregateRepeatsInProcess(t *testing.T) {
	report := func() []byte {
		res, err := RunPartitionAggregate(PAOptions{
			Scheme: SchemeF2Tree, Ports: 8, Channels: 1,
			Duration: 2 * sim.Second, Seed: 5,
			PA: workload.PartitionAggregateConfig{
				Workers: 8, RequestBytes: 100, ResponseBytes: 20000,
				MeanInterval: 2 * time.Millisecond, Requests: 300,
			},
			DisableBackground: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(struct {
			*PAResult
			CompletionS []float64
		}{res, res.CompletionS.Values()})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first, second := report(), report()
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs with equal options differ:\n%s\n%s", first, second)
	}
}

func TestRunBisectionF2TreeMatchesFatTree(t *testing.T) {
	// §II-D: F²Tree keeps the 1:1 non-oversubscribed property. Absolute
	// efficiency under line-rate UDP permutation traffic is limited by
	// per-flow ECMP hash collisions (no transport backoff here) — the
	// claim under test is that F²Tree matches fat tree, not that either
	// hits 100 %.
	run := func(s Scheme) *BisectionResult {
		res, err := RunBisection(BisectionOptions{Scheme: s, Ports: 8, Seed: 4, Duration: 50 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinMbps <= 0 {
			t.Fatalf("%s starved a host", s)
		}
		if res.Fmt() == "" {
			t.Fatal("empty Fmt")
		}
		return res
	}
	fat := run(SchemeFatTree)
	f2 := run(SchemeF2Tree)
	if f2.Efficiency < 0.85*fat.Efficiency {
		t.Fatalf("F²Tree efficiency %.2f vs fat tree %.2f — §II-D violated",
			f2.Efficiency, fat.Efficiency)
	}
}

func TestRunProtocolsAllPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("6 recovery runs")
	}
	res, err := RunProtocols(5)
	if err != nil {
		t.Fatal(err)
	}
	for proto, byScheme := range res.Loss {
		f2 := byScheme[SchemeF2Tree]
		if f2.ConnectivityLoss < 55*time.Millisecond || f2.ConnectivityLoss > 80*time.Millisecond {
			t.Errorf("%s: F²Tree loss = %v, want ≈ 60 ms (protocol-independent)", proto, f2.ConnectivityLoss)
		}
		ft := byScheme[SchemeFatTree]
		if ft.ConnectivityLoss < f2.ConnectivityLoss {
			t.Errorf("%s: fat tree (%v) beat F²Tree (%v)", proto, ft.ConnectivityLoss, f2.ConnectivityLoss)
		}
	}
	if got := res.String(); got != protocolsTable {
		t.Errorf("protocol table:\n%s\nwant:\n%s", got, protocolsTable)
	}
}

// protocolsTable is RunProtocols(5) rendered: the rows come from a map, so
// a byte-for-byte match pins their order as well as every loss figure.
const protocolsTable = `Control-plane independence (§V) — C1 connectivity loss (ms)
protocol           fat tree       F2Tree
bgp                    71.0         60.1
centralized           132.1         60.1
ospf                  271.1         60.1
F²Tree's reroute is data-plane-local: the same ≈ 60 ms under every protocol.
`

func TestRunFIBSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("8 recovery runs")
	}
	res, err := RunFIBSweep(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Fat <= res.Points[i-1].Fat {
			t.Fatal("fat tree loss should grow with FIB delay")
		}
		if res.Points[i].F2 != res.Points[i-1].F2 {
			t.Fatal("F²Tree loss should be FIB-delay independent")
		}
	}
	if !strings.Contains(res.String(), "FIB") {
		t.Fatal("sweep table malformed")
	}
}

func TestDetectionSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("8 recovery runs")
	}
	res, err := RunDetectionSweep(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// F²Tree recovery ≈ the detection delay itself.
		if diff := p.F2 - p.Param; diff < 0 || diff > 5*time.Millisecond {
			t.Errorf("detection %v: F² loss %v, want ≈ param", p.Param, p.F2)
		}
		// Fat tree ≈ detection + SPF(200ms) + FIB(10ms).
		want := p.Param + 211*time.Millisecond
		if p.Fat < want-15*time.Millisecond || p.Fat > want+30*time.Millisecond {
			t.Errorf("detection %v: fat loss %v, want ≈ %v", p.Param, p.Fat, want)
		}
	}
	if !strings.Contains(res.String(), "detection") {
		t.Error("sweep table malformed")
	}
}

func TestScaleK12RecoveryInvariant(t *testing.T) {
	// §III: "the advantage would be larger as the network scales". Our
	// control-plane timers are scale-fixed, so the invariant reproduced
	// here is: F²Tree's recovery stays at detection speed at k=12 (300
	// hosts) while fat tree stays SPF-bound.
	if testing.Short() {
		t.Skip("large topology")
	}
	f2, err := RunRecovery(RecoveryOptions{Scheme: SchemeF2Tree, Ports: 12, Condition: failure.C1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f2.ConnectivityLoss < 55*time.Millisecond || f2.ConnectivityLoss > 80*time.Millisecond {
		t.Fatalf("k=12 F²Tree loss = %v, want ≈ 60 ms", f2.ConnectivityLoss)
	}
	ft, err := RunRecovery(RecoveryOptions{Scheme: SchemeFatTree, Ports: 12, Condition: failure.C1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ft.ConnectivityLoss < 250*time.Millisecond {
		t.Fatalf("k=12 fat tree loss = %v, want SPF-bound", ft.ConnectivityLoss)
	}
}

func TestAspenBaselineAsymmetry(t *testing.T) {
	// The paper's critique of Aspen trees (§VI): fault tolerance only at
	// the wired layer. A core–agg failure (C2) is absorbed by the parallel
	// links at detection speed; a ToR–agg failure (C1) still waits for the
	// control plane.
	c2, err := RunRecovery(RecoveryOptions{Scheme: SchemeAspen, Ports: 8, Condition: failure.C2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c2.ConnectivityLoss > 80*time.Millisecond {
		t.Fatalf("Aspen C2 loss = %v, want detection-speed (parallel links)", c2.ConnectivityLoss)
	}
	c1, err := RunRecovery(RecoveryOptions{Scheme: SchemeAspen, Ports: 8, Condition: failure.C1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c1.ConnectivityLoss < 250*time.Millisecond {
		t.Fatalf("Aspen C1 loss = %v, want control-plane-bound", c1.ConnectivityLoss)
	}
}

func TestRunFig7Shape(t *testing.T) {
	res, err := RunFig7(11)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range res.Pairs {
		base, f2 := pair[0], pair[1]
		if f2.ConnectivityLoss >= base.ConnectivityLoss {
			t.Fatalf("%s: F² variant (%v) not faster than baseline (%v)",
				name, f2.ConnectivityLoss, base.ConnectivityLoss)
		}
		if f2.ConnectivityLoss > 100*time.Millisecond {
			t.Fatalf("%s: F² recovery %v, want detection-speed", name, f2.ConnectivityLoss)
		}
	}
	if !strings.Contains(res.String(), "leafspine") {
		t.Fatal("Fig7 string malformed")
	}
}
