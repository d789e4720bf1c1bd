// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Each benchmark reports the headline quantities via b.ReportMetric so a
// bench run reads like the paper's results section:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock ns/op measures the simulator, not the network; the
// reported custom metrics (ms of connectivity loss, miss percentages) are
// the reproduced results.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// BenchmarkTable1Scalability regenerates Table I: closed-form switch and
// host budgets per scheme. Reported metrics: F²Tree's switch/host counts
// and the node-loss fraction at N=128 (paper: ≈ 2 %).
func BenchmarkTable1Scalability(b *testing.B) {
	var lastSwitches, lastNodes float64
	for i := 0; i < b.N; i++ {
		for _, s := range topo.Table1Schemes() {
			row, err := topo.Table1Row(s, 8, 1)
			if err != nil {
				b.Fatal(err)
			}
			if s == "f2tree" {
				lastSwitches, lastNodes = row.Switches, row.Nodes
			}
		}
	}
	b.ReportMetric(lastSwitches, "f2tree-switches@N8")
	b.ReportMetric(lastNodes, "f2tree-nodes@N8")
	b.ReportMetric(topo.NodeLossFraction(128)*100, "node-loss-%@N128")
}

// BenchmarkFig2Testbed regenerates Fig 2: the k=4 testbed UDP/TCP
// throughput collapse-and-recovery traces. Reported: the length of each
// scheme's UDP outage visible in the throughput series.
func BenchmarkFig2Testbed(b *testing.B) {
	var res *exp.TestbedResults
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.RunFig2Table3(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FatTree.ConnectivityLoss.Milliseconds()), "fat-udp-outage-ms")
	b.ReportMetric(float64(res.F2Tree.ConnectivityLoss.Milliseconds()), "f2-udp-outage-ms")
	b.ReportMetric(float64(res.FatTree.CollapseDuration.Milliseconds()), "fat-tcp-collapse-ms")
	b.ReportMetric(float64(res.F2Tree.CollapseDuration.Milliseconds()), "f2-tcp-collapse-ms")
}

// BenchmarkTable3TestbedRecovery regenerates Table III: connectivity loss,
// packets lost and throughput collapse on the k=4 testbed (paper: 272847 µs
// / 1302 / 700 ms vs 60619 µs / 310 / 220 ms; reduction 78 %).
func BenchmarkTable3TestbedRecovery(b *testing.B) {
	var res *exp.TestbedResults
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.RunFig2Table3(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	ft, f2 := res.FatTree, res.F2Tree
	b.ReportMetric(float64(ft.ConnectivityLoss.Microseconds()), "fat-loss-us")
	b.ReportMetric(float64(f2.ConnectivityLoss.Microseconds()), "f2-loss-us")
	b.ReportMetric(float64(ft.PacketsLost), "fat-pkts-lost")
	b.ReportMetric(float64(f2.PacketsLost), "f2-pkts-lost")
	b.ReportMetric((1-float64(f2.ConnectivityLoss)/float64(ft.ConnectivityLoss))*100, "loss-reduction-%")
}

// BenchmarkFig4Conditions regenerates Fig 4: the 8-port emulation across
// failure conditions C1–C7. Reported: per-condition F²Tree outages plus
// the fat tree C1 baseline.
func BenchmarkFig4Conditions(b *testing.B) {
	var res *exp.Fig4Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.RunFig4(42, campaign.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.ByCondition[exp.SchemeFatTree][failure.C1].ConnectivityLoss.Milliseconds()), "fat-C1-ms")
	for _, c := range failure.AllConditions() {
		r := res.ByCondition[exp.SchemeF2Tree][c]
		b.ReportMetric(float64(r.ConnectivityLoss.Milliseconds()), "f2-"+c.String()+"-ms")
	}
}

// BenchmarkFig5DelaySeries regenerates Fig 5: end-to-end delay before,
// during and after fast rerouting (paper: 100 µs → 117 µs → 100 µs for C1).
func BenchmarkFig5DelaySeries(b *testing.B) {
	var res *exp.RecoveryResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeF2Tree, Ports: 8, Condition: failure.C1, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Average delay in three send-time windows.
	window := func(lo, hi sim.Time) float64 {
		var sum time.Duration
		n := 0
		for _, d := range res.Delays {
			if d.SentAt >= lo && d.SentAt < hi {
				sum += d.Delay
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(sum.Microseconds()) / float64(n)
	}
	b.ReportMetric(window(100*sim.Millisecond, 300*sim.Millisecond), "delay-before-us")
	b.ReportMetric(window(500*sim.Millisecond, 600*sim.Millisecond), "delay-frr-us")
	b.ReportMetric(window(1500*sim.Millisecond, 1900*sim.Millisecond), "delay-after-us")
}

// BenchmarkFig6PartitionAggregate regenerates Fig 6: the partition-
// aggregate workload with background traffic under 1 and 5 concurrent
// random failures (full 600 s windows; this is the long benchmark).
// Reported: per-cell deadline-miss percentages (paper: fat tree ≈ 0.4 % /
// 1.6 %, F²Tree 0 % / ≈ 0.06 %).
func BenchmarkFig6PartitionAggregate(b *testing.B) {
	var res *exp.Fig6Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.RunFig6(42, 0, false, campaign.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, run := range res.Runs {
		name := string(run.Scheme[:3]) + "-CF" + itoa(run.Channels)
		b.ReportMetric(run.MissRatio*100, name+"-miss-%")
	}
	b.ReportMetric(float64(res.Runs[1].MaxSPFWait.Seconds()), "fat-CF5-maxspf-s")
}

// BenchmarkFig7OtherTopologies regenerates Fig 7: the scheme applied to
// Leaf-Spine and VL2 (§V).
func BenchmarkFig7OtherTopologies(b *testing.B) {
	var res *exp.Fig7Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.RunFig7(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, pair := range res.Pairs {
		b.ReportMetric(float64(pair[0].ConnectivityLoss.Milliseconds()), name+"-base-ms")
		b.ReportMetric(float64(pair[1].ConnectivityLoss.Milliseconds()), name+"-f2-ms")
	}
}

// BenchmarkAblationNoFastReroute removes the backup routes from F²Tree:
// recovery must fall back to OSPF, isolating the static routes (not the
// extra links) as the mechanism.
func BenchmarkAblationNoFastReroute(b *testing.B) {
	var loss time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeF2Tree, Ports: 8, Condition: failure.C1,
			Seed: 42, DisableFastReroute: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		loss = res.ConnectivityLoss
	}
	b.ReportMetric(float64(loss.Milliseconds()), "no-frr-loss-ms")
}

// BenchmarkAblationWideRingC7 gives each switch four across links
// (§II-C's extension): the C7 condition that defeats the 2-wide ring must
// fast-reroute.
func BenchmarkAblationWideRingC7(b *testing.B) {
	var loss time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeF2Wide, Ports: 10, Condition: failure.C7, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		loss = res.ConnectivityLoss
	}
	b.ReportMetric(float64(loss.Milliseconds()), "wide-C7-loss-ms")
}

// BenchmarkAblationEqualPrefixLoops configures both backup routes with the
// same prefix (what §II-B warns against) and counts TTL-expired packets
// under C4 — the forwarding loop the distinct-length design prevents.
func BenchmarkAblationEqualPrefixLoops(b *testing.B) {
	var loops float64
	for i := 0; i < b.N; i++ {
		lab, err := exp.NewLab(exp.LabSpec{Scheme: exp.SchemeF2Tree, Ports: 8, Seed: 5, DisableFastReroute: true})
		if err != nil {
			b.Fatal(err)
		}
		tp := lab.Topo
		plan, err := core.PlanEqualPrefixBackupRoutes(tp)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Apply(lab.Net, plan); err != nil {
			b.Fatal(err)
		}
		src := lab.LeftmostHost()
		dst := lab.RightmostHost()
		ttl := 0
		lab.Net.OnDrop(func(_ sim.Time, _ topo.NodeID, _ *network.Packet, c network.DropCause) {
			if c == network.DropTTLExpired {
				ttl++
			}
		})
		flow := fib.FlowKey{
			Src: tp.Node(src).Addr, Dst: tp.Node(dst).Addr,
			Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9,
		}
		stop := lab.Sim.Ticker(time.Millisecond, func(sim.Time) {
			for sp := uint16(0); sp < 16; sp++ {
				f := flow
				f.SrcPort = 40000 + sp
				lab.Net.SendFromHost(src, &network.Packet{Flow: f, Size: 1488})
			}
		})
		lab.Sim.At(100*sim.Millisecond, func(sim.Time) {
			path, err := lab.Net.PathTrace(src, flow)
			if err != nil {
				return
			}
			links, err := failure.ConditionLinks(tp, failure.C4, path)
			if err != nil {
				return
			}
			for _, id := range links {
				lab.Net.FailLink(id)
			}
		})
		if err := lab.Sim.Run(600 * sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		stop()
		loops = float64(ttl)
	}
	b.ReportMetric(loops, "ttl-looped-pkts")
}

// BenchmarkAblationNoSPFThrottle disables the SPF hold backoff: fat tree
// recovery under churn no longer degrades to seconds, quantifying how much
// of the paper's Fig 6 tail is the throttle.
func BenchmarkAblationNoSPFThrottle(b *testing.B) {
	var miss float64
	var maxWait time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunPartitionAggregate(exp.PAOptions{
			Scheme: exp.SchemeFatTree, Ports: 8, Channels: 5,
			Duration: 120 * sim.Second, Seed: 7,
			PA: workload.PartitionAggregateConfig{
				Workers: 8, RequestBytes: 100, ResponseBytes: 2000,
				MeanInterval: 200 * time.Millisecond, Requests: 600,
			},
			DisableBackground: true,
			OSPF:              ospfNoThrottle(),
		})
		if err != nil {
			b.Fatal(err)
		}
		miss = res.MissRatio * 100
		maxWait = res.MaxSPFWait
	}
	b.ReportMetric(miss, "nothrottle-miss-%")
	b.ReportMetric(float64(maxWait.Milliseconds()), "nothrottle-maxspf-ms")
}

// BenchmarkExtensionCentralized reproduces the §V centralized-routing
// discussion: recovery via the controller loop on plain fat tree vs
// F²Tree's local reroute under the same controller.
func BenchmarkExtensionCentralized(b *testing.B) {
	var fat, f2 time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeFatTree, Ports: 8, Condition: failure.C1,
			Seed: 42, Control: exp.ControlCentralized,
		})
		if err != nil {
			b.Fatal(err)
		}
		fat = res.ConnectivityLoss
		res, err = exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeF2Tree, Ports: 8, Condition: failure.C1,
			Seed: 42, Control: exp.ControlCentralized,
		})
		if err != nil {
			b.Fatal(err)
		}
		f2 = res.ConnectivityLoss
	}
	b.ReportMetric(float64(fat.Milliseconds()), "central-fat-ms")
	b.ReportMetric(float64(f2.Milliseconds()), "central-f2-ms")
}

// BenchmarkExtensionBGP reproduces the §V "other routing schemes"
// discussion: downward-failure recovery under an MRAI-gated path-vector
// protocol, with and without F²Tree's backup routes.
func BenchmarkExtensionBGP(b *testing.B) {
	var fat, f2 time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeFatTree, Ports: 8, Condition: failure.C1,
			Seed: 42, Control: exp.ControlBGP, Horizon: 4 * sim.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		fat = res.ConnectivityLoss
		res, err = exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeF2Tree, Ports: 8, Condition: failure.C1,
			Seed: 42, Control: exp.ControlBGP,
		})
		if err != nil {
			b.Fatal(err)
		}
		f2 = res.ConnectivityLoss
	}
	b.ReportMetric(float64(fat.Milliseconds()), "bgp-fat-ms")
	b.ReportMetric(float64(f2.Milliseconds()), "bgp-f2-ms")
}

// BenchmarkAblationDetectionDelay sweeps the failure-detection interval
// (BFD tuning): F²Tree's recovery tracks it one-for-one, while fat tree
// stays dominated by the SPF delay — detection is F²Tree's *only* cost.
func BenchmarkAblationDetectionDelay(b *testing.B) {
	delays := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond, 100 * time.Millisecond}
	results := make(map[time.Duration][2]time.Duration, len(delays))
	for i := 0; i < b.N; i++ {
		for _, d := range delays {
			f2, err := exp.RunRecovery(exp.RecoveryOptions{
				Scheme: exp.SchemeF2Tree, Ports: 8, Condition: failure.C1, Seed: 42,
				Net: network.Config{DetectionDelay: d},
			})
			if err != nil {
				b.Fatal(err)
			}
			fat, err := exp.RunRecovery(exp.RecoveryOptions{
				Scheme: exp.SchemeFatTree, Ports: 8, Condition: failure.C1, Seed: 42,
				Net: network.Config{DetectionDelay: d},
			})
			if err != nil {
				b.Fatal(err)
			}
			results[d] = [2]time.Duration{fat.ConnectivityLoss, f2.ConnectivityLoss}
		}
	}
	for _, d := range delays {
		r := results[d]
		key := d.String()
		b.ReportMetric(float64(r[0].Milliseconds()), "fat@"+key)
		b.ReportMetric(float64(r[1].Milliseconds()), "f2@"+key)
	}
}

// BenchmarkAblationFIBUpdateDelay sweeps the FIB install time — the
// component that grows with table size in large fabrics ([19] Francois et
// al.; the paper's "advantage would be larger as the network scales").
// Fat tree pays it on every reconvergence; F²Tree's pre-installed backup
// routes never touch the FIB.
func BenchmarkAblationFIBUpdateDelay(b *testing.B) {
	delays := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	results := make(map[time.Duration][2]time.Duration, len(delays))
	for i := 0; i < b.N; i++ {
		for _, d := range delays {
			cfg := ospf.Config{FIBUpdateDelay: d}
			fat, err := exp.RunRecovery(exp.RecoveryOptions{
				Scheme: exp.SchemeFatTree, Ports: 8, Condition: failure.C1, Seed: 42, OSPF: cfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			f2, err := exp.RunRecovery(exp.RecoveryOptions{
				Scheme: exp.SchemeF2Tree, Ports: 8, Condition: failure.C1, Seed: 42, OSPF: cfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[d] = [2]time.Duration{fat.ConnectivityLoss, f2.ConnectivityLoss}
		}
	}
	for _, d := range delays {
		r := results[d]
		b.ReportMetric(float64(r[0].Milliseconds()), "fat@fib"+d.String())
		b.ReportMetric(float64(r[1].Milliseconds()), "f2@fib"+d.String())
	}
}

// BenchmarkScaleK12 runs the headline C1 comparison on the 300-host k=12
// fabrics, confirming the result is not an artifact of small topologies.
func BenchmarkScaleK12(b *testing.B) {
	var fat, f2 time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRecovery(exp.RecoveryOptions{Scheme: exp.SchemeFatTree, Ports: 12, Condition: failure.C1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		fat = res.ConnectivityLoss
		res, err = exp.RunRecovery(exp.RecoveryOptions{Scheme: exp.SchemeF2Tree, Ports: 12, Condition: failure.C1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		f2 = res.ConnectivityLoss
	}
	b.ReportMetric(float64(fat.Milliseconds()), "k12-fat-ms")
	b.ReportMetric(float64(f2.Milliseconds()), "k12-f2-ms")
}

// BenchmarkBaselineAspen quantifies the paper's §VI critique of Aspen
// trees: redundancy only where it was wired (core–agg parallel links fix
// C2 at detection speed; C1 still waits for OSPF), paid for with half the
// hosts (Table I).
func BenchmarkBaselineAspen(b *testing.B) {
	var c1, c2 time.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeAspen, Ports: 8, Condition: failure.C1, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		c1 = res.ConnectivityLoss
		res, err = exp.RunRecovery(exp.RecoveryOptions{
			Scheme: exp.SchemeAspen, Ports: 8, Condition: failure.C2, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		c2 = res.ConnectivityLoss
	}
	b.ReportMetric(float64(c1.Milliseconds()), "aspen-C1-ms")
	b.ReportMetric(float64(c2.Milliseconds()), "aspen-C2-ms")
}

// BenchmarkBisectionBandwidth checks §II-D: random permutation traffic at
// line rate on fat tree vs F²Tree. Absolute numbers are bounded by
// per-flow ECMP hash collisions (both fabrics equally); the claim is that
// the efficiencies match.
func BenchmarkBisectionBandwidth(b *testing.B) {
	var fat, f2 *exp.BisectionResult
	for i := 0; i < b.N; i++ {
		var err error
		fat, err = exp.RunBisection(exp.BisectionOptions{Scheme: exp.SchemeFatTree, Ports: 8, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		f2, err = exp.RunBisection(exp.BisectionOptions{Scheme: exp.SchemeF2Tree, Ports: 8, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fat.Efficiency, "fat-efficiency")
	b.ReportMetric(f2.Efficiency, "f2-efficiency")
	b.ReportMetric(fat.AggGbps, "fat-agg-gbps")
	b.ReportMetric(f2.AggGbps, "f2-agg-gbps")
}

// BenchmarkSimulatorThroughput measures raw event throughput: a 600 ms
// k=8 F²Tree recovery run per iteration, reporting events per second of
// wall clock — the substrate's own performance figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		lab, err := exp.NewLab(exp.LabSpec{Scheme: exp.SchemeF2Tree, Ports: 8, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		src, dst := lab.LeftmostHost(), lab.RightmostHost()
		flow := fib.FlowKey{
			Src: lab.Topo.Node(src).Addr, Dst: lab.Topo.Node(dst).Addr,
			Proto: network.ProtoUDP, SrcPort: 40000, DstPort: 9,
		}
		stop := lab.Sim.Ticker(100*time.Microsecond, func(sim.Time) {
			lab.Net.SendFromHost(src, &network.Packet{Flow: flow, Size: 1488})
		})
		if err := lab.Sim.Run(600 * sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		stop()
		events += lab.Sim.EventsRun()
	}
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(events)/el, "events/s")
	}
}

func itoa(n int) string {
	if n == 5 {
		return "5"
	}
	return "1"
}

// ospfNoThrottle returns an OSPF config with SPF throttling disabled.
func ospfNoThrottle() ospf.Config {
	return ospf.Config{DisableThrottle: true}
}
