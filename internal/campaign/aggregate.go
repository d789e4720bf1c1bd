package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/detsort"
)

// AggStat summarizes one metric across a group's replicates.
type AggStat struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Aggregate is one group row: a matrix cell collapsed across its seed
// replicates. Wall-clock cost and attempt counts are deliberately absent —
// aggregates are a pure function of the specs and their metrics, so two
// campaigns over the same matrix emit byte-identical aggregates whatever
// the parallelism or completion order.
type Aggregate struct {
	// Spec is the group's cell with Rep zeroed (the group identity).
	Spec Spec `json:"spec"`
	// Runs/Failed count the group's replicates by final status.
	Runs    int                `json:"runs"`
	Failed  int                `json:"failed"`
	Metrics map[string]AggStat `json:"metrics,omitempty"`
}

// groupKey is the spec with the replicate index erased.
func groupKey(s Spec) Spec {
	s.Rep = 0
	return s
}

// AggregateResults groups results by spec-minus-rep and summarizes every
// metric across each group's ok runs. Output rows are sorted by group key
// and each group's samples are sorted by value, so the result is
// deterministic regardless of input order.
func AggregateResults(results []Result) []Aggregate {
	type group struct {
		agg     Aggregate
		samples map[string][]float64
	}
	groups := make(map[string]*group)
	for _, r := range results {
		gs := groupKey(r.Spec)
		key := gs.Key()
		g, ok := groups[key]
		if !ok {
			g = &group{agg: Aggregate{Spec: gs}, samples: make(map[string][]float64)}
			groups[key] = g
		}
		g.agg.Runs++
		if r.Status != StatusOK {
			g.agg.Failed++
			continue
		}
		// Map order is harmless: each metric appends to its own key, and
		// samples are sorted before use.
		for name, v := range r.Metrics {
			g.samples[name] = append(g.samples[name], v)
		}
	}

	out := make([]Aggregate, 0, len(groups))
	for _, key := range detsort.Keys(groups) {
		g := groups[key]
		for _, name := range detsort.Keys(g.samples) {
			vals := g.samples[name]
			sort.Float64s(vals)
			if g.agg.Metrics == nil {
				g.agg.Metrics = make(map[string]AggStat)
			}
			g.agg.Metrics[name] = summarize(vals)
		}
		out = append(out, g.agg)
	}
	return out
}

// summarize computes the stats of a sorted, non-empty sample set.
func summarize(sorted []float64) AggStat {
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return AggStat{
		Mean: sum / float64(len(sorted)),
		P50:  quantile(sorted, 0.50),
		P99:  quantile(sorted, 0.99),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
	}
}

// quantile is the nearest-rank quantile of a sorted sample set.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteAggregateJSONL writes one JSON line per aggregate row. Struct field
// order is fixed and map keys marshal sorted, so equal aggregates are
// byte-identical.
func WriteAggregateJSONL(w io.Writer, aggs []Aggregate) error {
	for _, a := range aggs {
		b, err := json.Marshal(a)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// SummaryTable renders the aggregates as an aligned text table: one row
// per group, the headline metric columns first.
func SummaryTable(aggs []Aggregate) string {
	headline := []string{
		"connectivity_loss_ms", "packets_lost", "collapse_ms",
		"miss_ratio", "completed",
	}
	present := make([]string, 0, len(headline))
	for _, name := range headline {
		for _, a := range aggs {
			if _, ok := a.Metrics[name]; ok {
				present = append(present, name)
				break
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %5s %6s", "cell (kind/scheme/cond/ctrl/ch/ports)", "runs", "failed")
	for _, name := range present {
		fmt.Fprintf(&b, " %20s", name+" mean/p99")
	}
	b.WriteByte('\n')
	for _, a := range aggs {
		cell := fmt.Sprintf("%s/%s", a.Spec.Kind, a.Spec.Scheme)
		if a.Spec.Condition != "" {
			cell += "/" + a.Spec.Condition
		}
		if a.Spec.Control != "" {
			cell += "/" + a.Spec.Control
		}
		if a.Spec.Channels > 0 {
			cell += fmt.Sprintf("/cf%d", a.Spec.Channels)
		}
		cell += fmt.Sprintf("/n%d", a.Spec.Ports)
		fmt.Fprintf(&b, "%-44s %5d %6d", cell, a.Runs, a.Failed)
		for _, name := range present {
			if st, ok := a.Metrics[name]; ok {
				fmt.Fprintf(&b, " %20s", fmt.Sprintf("%.2f/%.2f", st.Mean, st.P99))
			} else {
				fmt.Fprintf(&b, " %20s", "—")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
