package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/detsort"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vis"
)

// Table1String renders the paper's Table I at port count n (Aspen with
// f=1, as the paper's minimum fault tolerance).
func Table1String(n int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — scalability & deployment at N=%d ports\n", n)
	fmt.Fprintf(&b, "%-18s %12s %12s %10s %10s\n", "Scheme", "Switches", "Nodes", "ModRouting", "ModData")
	for _, s := range topo.Table1Schemes() {
		row, err := topo.Table1Row(s, n, 1)
		if err != nil {
			return "", err
		}
		sw, nodes := fmt.Sprintf("%.0f", row.Switches), fmt.Sprintf("%.0f", row.Nodes)
		if s == "ddc" {
			sw, nodes = "n/a", "n/a"
		}
		fmt.Fprintf(&b, "%-18s %12s %12s %10s %10s\n",
			row.Scheme, sw, nodes, row.ModifiesRouting, row.ModifiesDataPath)
	}
	fmt.Fprintf(&b, "F²Tree node loss vs fat tree at N=128: %.2f%%\n", topo.NodeLossFraction(128)*100)
	return b.String(), nil
}

// Table4String renders the failure-condition catalog.
func Table4String() string {
	var b strings.Builder
	b.WriteString("Table IV — failure conditions (8-port, 3-layer DCN)\n")
	fmt.Fprintf(&b, "%-6s %-70s %s\n", "Label", "Failures", "§II-C condition")
	for _, c := range failure.AllConditions() {
		fmt.Fprintf(&b, "%-6s %-70s %d\n", c, c.Describe(), c.PaperCondition())
	}
	return b.String()
}

// TestbedResults pairs the two schemes of the k=4 testbed (Fig 2 /
// Table III).
type TestbedResults struct {
	FatTree *RecoveryResult
	F2Tree  *RecoveryResult
}

// RunFig2Table3 runs the testbed experiment: 4-port fat tree vs the
// paper's Fig 1(b) prototype rewiring, one ToR–agg downward link failure at
// 380 ms.
func RunFig2Table3(seed int64) (*TestbedResults, error) {
	ft, err := RunRecovery(RecoveryOptions{
		Scheme: SchemeFatTree, Ports: 4, Condition: failure.C1,
		Seed: RecoverySeed(seed, SchemeFatTree, 4, failure.C1, ControlOSPF, 0),
	})
	if err != nil {
		return nil, fmt.Errorf("fattree: %w", err)
	}
	f2, err := RunRecovery(RecoveryOptions{
		Scheme: SchemeF2Proto, Ports: 4, Condition: failure.C1,
		Seed: RecoverySeed(seed, SchemeF2Proto, 4, failure.C1, ControlOSPF, 0),
	})
	if err != nil {
		return nil, fmt.Errorf("f2tree-proto: %w", err)
	}
	return &TestbedResults{FatTree: ft, F2Tree: f2}, nil
}

// Table3String renders Table III from testbed results.
func (r *TestbedResults) Table3String() string {
	var b strings.Builder
	b.WriteString("Table III — failure of one ToR–agg downward link (k=4 testbed)\n")
	fmt.Fprintf(&b, "%-10s %22s %14s %26s\n",
		"", "Connectivity loss (µs)", "Packets lost", "Throughput collapse (µs)")
	row := func(name string, res *RecoveryResult) {
		fmt.Fprintf(&b, "%-10s %22d %14d %26d\n", name,
			res.ConnectivityLoss.Microseconds(), res.PacketsLost,
			res.CollapseDuration.Microseconds())
	}
	row("Fat tree", r.FatTree)
	row("F2Tree", r.F2Tree)
	reduction := 1 - float64(r.F2Tree.ConnectivityLoss)/float64(r.FatTree.ConnectivityLoss)
	fmt.Fprintf(&b, "F²Tree reduces connectivity loss by %.0f%% (paper: 78%%)\n", reduction*100)
	return b.String()
}

// Fig2String renders both schemes' UDP and TCP throughput series.
func (r *TestbedResults) Fig2String() string {
	var b strings.Builder
	mbps := func(bins []metrics.Bin, width time.Duration) []float64 {
		out := make([]float64, len(bins))
		for i, bin := range bins {
			out[i] = bin.Mbps(width)
		}
		return out
	}
	b.WriteString(vis.Chart("Fig 2 — throughput shape (each glyph ≈ one 20 ms bin; dip = outage)",
		[]vis.Series{
			{Label: "UDP fat tree", Values: mbps(r.FatTree.UDPBins, r.FatTree.BinWidth)},
			{Label: "UDP F2Tree", Values: mbps(r.F2Tree.UDPBins, r.F2Tree.BinWidth)},
			{Label: "TCP fat tree", Values: mbps(r.FatTree.TCPBins, r.FatTree.BinWidth)},
			{Label: "TCP F2Tree", Values: mbps(r.F2Tree.TCPBins, r.F2Tree.BinWidth)},
		}))
	b.WriteString("Fig 2 — instantaneous throughput (Mbps, 20 ms bins; failure at 380 ms)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s\n", "t(ms)", "UDP-fat", "UDP-f2", "TCP-fat", "TCP-f2")
	n := len(r.FatTree.UDPBins)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%8d %12.1f %12.1f %12.1f %12.1f\n",
			r.FatTree.UDPBins[i].Start.Duration().Milliseconds(),
			r.FatTree.UDPBins[i].Mbps(r.FatTree.BinWidth),
			binAt(r.F2Tree.UDPBins, i).Mbps(r.F2Tree.BinWidth),
			binAt(r.FatTree.TCPBins, i).Mbps(r.FatTree.BinWidth),
			binAt(r.F2Tree.TCPBins, i).Mbps(r.F2Tree.BinWidth))
	}
	return b.String()
}

// Fig4Results holds the per-condition 8-port emulation sweep (§IV-A); the
// campaign package runs it (campaign.RunFig4).
type Fig4Results struct {
	// ByCondition[scheme][condition] — fat tree has C1–C5, F²Tree C1–C7.
	ByCondition map[Scheme]map[failure.Condition]*RecoveryResult
}

// String renders the three Fig 4 panels as a table.
func (r *Fig4Results) String() string {
	var b strings.Builder
	b.WriteString("Fig 4 — recovery metrics per failure condition (8-port emulation)\n")
	fmt.Fprintf(&b, "%-5s | %14s %14s | %12s %12s | %14s %14s\n",
		"Cond", "loss-fat(ms)", "loss-f2(ms)", "lost-fat", "lost-f2", "collapse-fat", "collapse-f2")
	for _, cond := range failure.AllConditions() {
		ft := r.ByCondition[SchemeFatTree][cond]
		f2 := r.ByCondition[SchemeF2Tree][cond]
		cell := func(res *RecoveryResult, f func(*RecoveryResult) string) string {
			if res == nil {
				return "—"
			}
			return f(res)
		}
		fmt.Fprintf(&b, "%-5s | %14s %14s | %12s %12s | %14s %14s\n", cond,
			cell(ft, func(x *RecoveryResult) string {
				return fmt.Sprintf("%.1f", float64(x.ConnectivityLoss.Microseconds())/1000)
			}),
			cell(f2, func(x *RecoveryResult) string {
				return fmt.Sprintf("%.1f", float64(x.ConnectivityLoss.Microseconds())/1000)
			}),
			cell(ft, func(x *RecoveryResult) string { return fmt.Sprintf("%d", x.PacketsLost) }),
			cell(f2, func(x *RecoveryResult) string { return fmt.Sprintf("%d", x.PacketsLost) }),
			cell(ft, func(x *RecoveryResult) string {
				return fmt.Sprintf("%.0fms", float64(x.CollapseDuration.Milliseconds()))
			}),
			cell(f2, func(x *RecoveryResult) string {
				return fmt.Sprintf("%.0fms", float64(x.CollapseDuration.Milliseconds()))
			}))
	}
	return b.String()
}

// Fig5String renders the end-to-end delay series of representative
// conditions, down-sampled to every 10 ms of send time.
func (r *Fig4Results) Fig5String() string {
	series := []struct {
		name string
		res  *RecoveryResult
	}{
		{"fattree-C1", r.ByCondition[SchemeFatTree][failure.C1]},
		{"f2tree-C1", r.ByCondition[SchemeF2Tree][failure.C1]},
		{"f2tree-C4", r.ByCondition[SchemeF2Tree][failure.C4]},
		{"f2tree-C5", r.ByCondition[SchemeF2Tree][failure.C5]},
		{"f2tree-C7", r.ByCondition[SchemeF2Tree][failure.C7]},
	}
	var b strings.Builder
	b.WriteString("Fig 5 — end-to-end delay (µs) during recovery (failure at 380 ms)\n")
	b.WriteString("send-time(ms)")
	for _, s := range series {
		fmt.Fprintf(&b, " %12s", s.name)
	}
	b.WriteByte('\n')
	for t := sim.Time(0); t < 900*sim.Millisecond; t += 10 * sim.Millisecond {
		fmt.Fprintf(&b, "%13d", t.Duration().Milliseconds())
		for _, s := range series {
			d, ok := delayNear(s.res, t)
			if !ok {
				fmt.Fprintf(&b, " %12s", "·") // connectivity lost
			} else {
				fmt.Fprintf(&b, " %12.0f", float64(d.Microseconds()))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// delayNear finds a delivered packet sent within 5 ms of t.
func delayNear(res *RecoveryResult, t sim.Time) (time.Duration, bool) {
	if res == nil {
		return 0, false
	}
	i := sort.Search(len(res.Delays), func(i int) bool { return res.Delays[i].SentAt >= t })
	best, found := time.Duration(0), false
	for _, j := range []int{i - 1, i} {
		if j < 0 || j >= len(res.Delays) {
			continue
		}
		diff := res.Delays[j].SentAt.Sub(t)
		if diff < 0 {
			diff = -diff
		}
		if diff <= 5*time.Millisecond {
			best, found = res.Delays[j].Delay, true
		}
	}
	return best, found
}

// Fig6Results holds the four partition-aggregate runs (campaign.RunFig6).
type Fig6Results struct {
	Runs []*PAResult // fattree×{1,5}, f2tree×{1,5}
}

// String renders Fig 6(a) rows plus the Fig 6(b) CDF tail markers.
func (r *Fig6Results) String() string {
	var b strings.Builder
	b.WriteString("Fig 6(a) — deadline (250 ms) miss ratio under concurrent failures\n")
	for _, run := range r.Runs {
		b.WriteString(run.Fmt())
		b.WriteByte('\n')
	}
	// Reduction rows, as the paper reports them.
	find := func(s Scheme, ch int) *PAResult {
		for _, run := range r.Runs {
			if run.Scheme == s && run.Channels == ch {
				return run
			}
		}
		return nil
	}
	for _, ch := range []int{1, 5} {
		ft, f2 := find(SchemeFatTree, ch), find(SchemeF2Tree, ch)
		if ft == nil || f2 == nil || ft.MissRatio == 0 {
			continue
		}
		fmt.Fprintf(&b, "CF=%d: F²Tree reduces deadline misses by %.1f%%\n",
			ch, (1-f2.MissRatio/ft.MissRatio)*100)
	}
	b.WriteString("\nFig 6(b) — completion-time tail (fraction of requests above t)\n")
	fmt.Fprintf(&b, "%-14s %3s %10s %10s %10s %10s\n", "scheme", "CF", ">100ms", ">200ms", ">600ms", ">1s")
	for _, run := range r.Runs {
		frac := func(s float64) float64 {
			if run.Requests == 0 {
				return 0
			}
			// Incomplete requests sit beyond every threshold.
			incomplete := float64(run.Requests - run.Completed)
			return (run.CompletionS.FractionAbove(s)*float64(run.Completed) + incomplete) / float64(run.Requests)
		}
		fmt.Fprintf(&b, "%-14s %3d %9.3f%% %9.3f%% %9.3f%% %9.3f%%\n",
			run.Scheme, run.Channels, frac(0.1)*100, frac(0.2)*100, frac(0.6)*100, frac(1.0)*100)
	}
	return b.String()
}

// Fig7Results holds the other-topology comparisons (§V).
type Fig7Results struct {
	Pairs map[string][2]*RecoveryResult // name → [baseline, f2 variant]
}

// RunFig7 compares Leaf-Spine and VL2 with their F²Tree rewirings under a
// downward link failure.
func RunFig7(seed int64) (*Fig7Results, error) {
	out := &Fig7Results{Pairs: map[string][2]*RecoveryResult{}}
	pairs := []struct {
		name     string
		base, f2 Scheme
	}{
		{"leafspine", SchemeLeafSpine, SchemeF2LeafSpine},
		{"vl2", SchemeVL2, SchemeF2VL2},
	}
	for _, p := range pairs {
		base, err := RunRecovery(RecoveryOptions{Scheme: p.base, Ports: 8, Condition: failure.C1,
			Seed: RecoverySeed(seed, p.base, 8, failure.C1, ControlOSPF, 0)})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.base, err)
		}
		f2, err := RunRecovery(RecoveryOptions{Scheme: p.f2, Ports: 8, Condition: failure.C1,
			Seed: RecoverySeed(seed, p.f2, 8, failure.C1, ControlOSPF, 0)})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.f2, err)
		}
		out.Pairs[p.name] = [2]*RecoveryResult{base, f2}
	}
	return out, nil
}

// String renders Fig 7 as recovery-time rows.
func (r *Fig7Results) String() string {
	var b strings.Builder
	b.WriteString("Fig 7 — F²Tree scheme on other multi-rooted topologies (§V)\n")
	fmt.Fprintf(&b, "%-12s %20s %20s\n", "Topology", "loss baseline (ms)", "loss with F² (ms)")
	for _, n := range detsort.Keys(r.Pairs) {
		pair := r.Pairs[n]
		fmt.Fprintf(&b, "%-12s %20.1f %20.1f\n", n,
			float64(pair[0].ConnectivityLoss.Microseconds())/1000,
			float64(pair[1].ConnectivityLoss.Microseconds())/1000)
	}
	return b.String()
}

// binAt returns bins[i] or a zero bin when i is out of range.
func binAt(bins []metrics.Bin, i int) metrics.Bin {
	if i < 0 || i >= len(bins) {
		return metrics.Bin{}
	}
	return bins[i]
}
