package main

import (
	"fmt"
	"io"
	"math"
)

// comparison is one metric × workload pair of a -repeat run: the median of
// the first half of the sets against the median of the second half.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// RelDiff is (second − first) / first.
	RelDiff float64 `json:"relDiff"`
	// Bound is the end-to-end metric's regression bound; per-layer metrics
	// have none and are judged only where they must repeat exactly.
	Bound float64 `json:"bound,omitempty"`
	// Spread is the run-to-run noise the comparison has to see through, as
	// an interquartile distance over the median: across a side's runs when
	// it has at least four, else within a run, across the passes (or the
	// set-ups) the metric is computed from.
	Spread  float64 `json:"spread"`
	Verdict string  `json:"verdict"`
}

// Verdicts of a comparison.
const (
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved" // within the bound, but the spread is wider than the bound
	verdictDisagree   = "DISAGREE"
	verdictExact      = "exact"
	verdictInfo       = "-"
)

// repeatsExactly reports whether a per-layer metric is a simulated figure,
// which the same seed must reproduce digit for digit.
func repeatsExactly(m layerSpec) bool { return m.Unit == "count" || m.Name == "paper.err_pct" }

// seriesBehind names the timing series whose spread stands for a metric's
// within-run noise: the operations of a pass differ by design, so the
// per-operation and throughput metrics borrow the passes' spread.
func seriesBehind(metric string) string {
	switch metric {
	case "op_ms_p50", "ops_per_s":
		return "wall_s"
	}
	return metric
}

// compareSets compares the first half of the sets with the second half and
// returns the comparisons and how many of them disagree.
func compareSets(sets [][]workloadReport) ([]comparison, int) {
	half := len(sets) / 2
	var out []comparison
	bad := 0
	for wi := range sets[0] {
		side := func(traced bool, metric string, from, to int) (sample, float64) {
			var vals sample
			var spread float64
			for _, set := range sets[from:to] {
				d := set[wi].EndToEnd
				if traced {
					d = set[wi].PerLayer
				}
				vals = append(vals, d.Result.Metrics[metric].Value)
				if t, ok := d.Timings[seriesBehind(metric)]; ok && t.Median != 0 {
					spread = math.Max(spread, (t.Q3-t.Q1)/t.Median)
				}
			}
			if len(vals) >= 4 {
				spread = vals.relIQR()
			}
			return vals, spread
		}
		pair := func(traced bool, metric, unit string) comparison {
			a, sa := side(traced, metric, 0, half)
			b, sb := side(traced, metric, len(sets)-half, len(sets))
			c := comparison{
				Workload: sets[0][wi].Name, Metric: metric, Unit: unit,
				First: a.median(), Second: b.median(), Spread: math.Max(sa, sb),
			}
			if c.First != 0 {
				c.RelDiff = (c.Second - c.First) / c.First
			}
			return c
		}
		for _, m := range e2eMetrics {
			c := pair(false, m.Name, m.Unit)
			c.Bound = m.Bound
			switch {
			case math.Abs(c.RelDiff) > m.Bound:
				c.Verdict = verdictDisagree
				bad++
			case c.Spread > m.Bound:
				c.Verdict = verdictUnresolved
			default:
				c.Verdict = verdictUnchanged
			}
			out = append(out, c)
		}
		for _, m := range layerMetrics {
			c := pair(true, m.Name, m.Unit)
			switch {
			case !repeatsExactly(m):
				c.Verdict = verdictInfo
			case c.First == c.Second:
				c.Verdict = verdictExact
			default:
				c.Verdict = verdictDisagree
				bad++
			}
			out = append(out, c)
		}
	}
	return out, bad
}

func printComparison(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "\n== first half of the sets against the second half\n")
	fmt.Fprintf(w, "%-18s %-34s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "spread", "verdict")
	for _, c := range cs {
		bound := "-"
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", c.Bound*100)
		}
		fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g %+7.1f%% %6s %6.1f%%  %s\n",
			c.Workload, c.Metric, c.First, c.Second, c.RelDiff*100, bound, c.Spread*100, c.Verdict)
	}
}
