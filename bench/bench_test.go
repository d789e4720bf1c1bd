package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/failure"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := sample{7, 1, 10, 3, 5, 9, 2, 8, 4, 6}
	q1, med, q3 := s.quartiles()
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Fatalf("median of three = %v, want 2", got)
	}
	if got := (sample{4}).relIQR(); got != 0 {
		t.Fatalf("a single sample has spread %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {3000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make(sample, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := s.percentile(tailPercentile(len(s))); got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: union 10..60
		{Name: "grandchild", Start: 15, End: 20, Parent: 1},
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	stats := summarize(spans)
	if stats[0].Name != "parent" || stats[0].SelfMs != millis(40) || stats[0].Count != 1 {
		t.Fatalf("summary of parent = %+v", stats[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(noSpan, 0, "x")
	tr.end(id)
	ran := false
	if err := (scope{}).span("y", func(scope) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("span on a nil tracer: ran=%v err=%v", ran, err)
	}
}

// TestWorkloadGenerationIsSeeded: the same seed gives the same inputs, another
// seed gives other inputs, for every seeded generator.
func TestWorkloadGenerationIsSeeded(t *testing.T) {
	scenarios := func(seed int64) string {
		scs, err := ctrlScenarios(rand.New(rand.NewSource(seed)), 8, exp.ControlOSPF)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(scs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	queries := func(seed int64) string {
		g, err := newQueryGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		var all []string
		for i := 0; i < 400; i++ {
			b, err := json.Marshal(g.query(i))
			if err != nil {
				t.Fatal(err)
			}
			if seen[string(b)] {
				t.Fatalf("query %d repeats an earlier one: %s", i, b)
			}
			seen[string(b)] = true
			all = append(all, string(b))
		}
		return strings.Join(all, "\n")
	}
	schedule := func(seed int64) string {
		tp, err := exp.BuildTopology(exp.SchemeF2Tree, paPorts)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := failureSchedule(rand.New(rand.NewSource(seed)), fabricLinks(tp), paChannels, paFailuresPerChannel, paWindow)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(fs)
	}
	for name, gen := range map[string]func(int64) string{"scenarios": scenarios, "queries": queries, "schedule": schedule} {
		if gen(42) != gen(42) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if gen(42) == gen(1337) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	if passSeed(42, 0) == passSeed(42, 1) || passSeed(42, 0) == passSeed(1337, 0) {
		t.Error("pass seeds collide")
	}
}

// TestFailureScheduleIsBalanced: whatever the seed, a schedule has the same
// number of failures, the same total downtime, distinct links, and ends inside
// the window — which is what keeps the workload's cost level across seeds.
func TestFailureScheduleIsBalanced(t *testing.T) {
	tp, err := exp.BuildTopology(exp.SchemeFatTree, paPorts)
	if err != nil {
		t.Fatal(err)
	}
	var downtime []int64
	for seed := int64(1); seed <= 5; seed++ {
		fs, err := failureSchedule(rand.New(rand.NewSource(seed)), fabricLinks(tp), paChannels, paFailuresPerChannel, paWindow)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != paChannels*paFailuresPerChannel {
			t.Fatalf("seed %d: %d failures, want %d", seed, len(fs), paChannels*paFailuresPerChannel)
		}
		links := make(map[int]bool)
		var total int64
		for _, f := range fs {
			if links[int(f.link)] {
				t.Fatalf("seed %d: link %d fails twice", seed, f.link)
			}
			links[int(f.link)] = true
			total += f.lastMs
			if end := f.at.Add(time.Duration(f.lastMs) * time.Millisecond); f.at < 0 || end > paWindow+1 {
				t.Fatalf("seed %d: failure %v+%dms leaves the window", seed, f.at, f.lastMs)
			}
		}
		downtime = append(downtime, total)
	}
	for _, d := range downtime[1:] {
		if d != downtime[0] {
			t.Fatalf("total downtime differs across seeds: %v", downtime)
		}
	}
}

func TestSpecTablesAreValid(t *testing.T) {
	if err := validateSpec(workloads(), e2eMetrics, layerMetrics); err != nil {
		t.Fatal(err)
	}
}

func TestValidateSpecRejects(t *testing.T) {
	type tables struct {
		w []workloadSpec
		e []e2eSpec
		l []layerSpec
	}
	valid := func() *tables {
		return &tables{
			w: []workloadSpec{{Name: "a", Why: "first"}, {Name: "b", Why: "second"}},
			e: []e2eSpec{{"setup_s", "s", "lower", 0.2}, {"wall_s", "s", "lower", 0.1}},
			l: []layerSpec{{"x.n", "count", "lower", "wall_s", []string{"a"}}, {"x.info", "ms", "lower", "", nil}},
		}
	}
	many := func(n int) []layerSpec {
		out := make([]layerSpec, n)
		for i := range out {
			out[i] = layerSpec{Name: fmt.Sprintf("m%d", i), Unit: "ms", Better: "lower"}
		}
		return out
	}
	check := func(tb *tables) error { return validateSpec(tb.w, tb.e, tb.l) }
	if err := check(valid()); err != nil {
		t.Fatalf("the valid tables are rejected: %v", err)
	}
	for name, mutate := range map[string]func(*tables){
		"bad name":       func(tb *tables) { tb.l[0].Name = "x n" },
		"leading dot":    func(tb *tables) { tb.l[0].Name = ".x" },
		"duplicate name": func(tb *tables) { tb.l[1].Name = "wall_s" },
		"one workload":   func(tb *tables) { tb.w = tb.w[:1] },
		"nine workloads": func(tb *tables) {
			for i := 0; i < 7; i++ {
				tb.w = append(tb.w, workloadSpec{Name: fmt.Sprintf("w%d", i), Why: "more"})
			}
		},
		"seventeen end-to-end metrics": func(tb *tables) {
			for i := 0; i < 15; i++ {
				tb.e = append(tb.e, e2eSpec{fmt.Sprintf("e%d", i), "s", "lower", 0.1})
			}
		},
		"129 per-layer metrics":        func(tb *tables) { tb.l = many(129) },
		"no setup_s":                   func(tb *tables) { tb.e = tb.e[1:] },
		"bound too wide":               func(tb *tables) { tb.e[1].Bound = 0.3 },
		"bad direction":                func(tb *tables) { tb.e[1].Better = "faster" },
		"moves an unknown metric":      func(tb *tables) { tb.l[0].moves = "latency" },
		"moves on no workload":         func(tb *tables) { tb.l[0].workloads = nil },
		"moves on an unknown workload": func(tb *tables) { tb.l[0].workloads = []string{"c"} },
		"long reason":                  func(tb *tables) { tb.w[0].Why = strings.Repeat("y", 201) },
	} {
		tb := valid()
		mutate(tb)
		if err := check(tb); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	tb := valid()
	tb.l = many(128)
	if err := check(tb); err != nil {
		t.Errorf("128 per-layer metrics are rejected: %v", err)
	}
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json, which the acceptance driver
// reads, says what the tables the program reports from say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []e2eSpec                             `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	ws := workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the file, %d in the table", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, table has %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end: file has %+v, table has %+v", file.EndToEnd, e2eMetrics)
	}
	if len(file.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in the file, %d in the table", len(file.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := file.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: file has %+v, table has %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

// TestSlicedRecoveryEqualsRunRecovery: the traced pass's reassembly of one
// recovery cell, with Sim.Run cut at the phase boundaries, reproduces
// exp.RunRecovery's figures, and runs exactly the events an uncut run does.
func TestSlicedRecoveryEqualsRunRecovery(t *testing.T) {
	for _, cell := range []recoveryCell{
		{exp.SchemeF2Tree, failure.C4, 60, 5},
		{exp.SchemeFatTree, failure.C1, 270, 10},
	} {
		o := recoveryOptions(cell, 42)
		want, err := exp.RunRecovery(o)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		counts := make(layerCounts)
		sliced, err := runRecoverySliced(scope{tr: tr, parent: noSpan}, o, counts, true)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := runRecoverySliced(scope{tr: newTracer(), parent: noSpan}, o, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		got := recoveryOutcome{loss: want.ConnectivityLoss, collapse: want.CollapseDuration,
			sent: want.PacketsSent, lost: want.PacketsLost, timeouts: want.TCPTimeouts}
		if sliced.digest() != got.digest() {
			t.Errorf("%s %s: sliced reassembly gives %s, exp.RunRecovery %s", cell.scheme, cell.cond, sliced.digest(), got.digest())
		}
		if sliced.events != whole.events || sliced.events == 0 {
			t.Errorf("%s %s: sliced run executed %d events, uncut run %d", cell.scheme, cell.cond, sliced.events, whole.events)
		}
		if sum := counts["phase.steady_events"] + counts["phase.detect_events"] + counts["phase.converge_events"] + counts["phase.tail_events"]; sum != float64(sliced.events) {
			t.Errorf("%s %s: the phases' events sum to %v of %d", cell.scheme, cell.cond, sum, sliced.events)
		}
		if math.Abs(millis(sliced.loss)-cell.paperMs) > cell.tolMs {
			t.Errorf("%s %s: loss %v is outside the paper's %v±%v ms", cell.scheme, cell.cond, sliced.loss, cell.paperMs, cell.tolMs)
		}
		if len(tr.durations("phase.converge")) != 2 || len(tr.durations("ospf.bootstrap")) != 2 {
			t.Errorf("%s %s: spans missing from the traced reassembly", cell.scheme, cell.cond)
		}
	}
}

func TestCompareSetsVerdicts(t *testing.T) {
	set := func(wall, q1, q3 float64, events float64) []workloadReport {
		wr := workloadReport{Name: "w"}
		wr.EndToEnd.Result.Metrics = map[string]metricValue{}
		wr.EndToEnd.Timings = map[string]timingSummary{}
		for _, m := range e2eMetrics {
			wr.EndToEnd.Result.Metrics[m.Name] = metricValue{1, m.Unit}
		}
		wr.EndToEnd.Result.Metrics["wall_s"] = metricValue{wall, "s"}
		wr.EndToEnd.Timings["wall_s"] = timingSummary{N: 4, Q1: q1, Median: wall, Q3: q3}
		wr.PerLayer.Result.Metrics = map[string]metricValue{"sim.events": {events, "count"}}
		return []workloadReport{wr}
	}
	verdict := func(cs []comparison, metric string) string {
		for _, c := range cs {
			if c.Metric == metric {
				return c.Verdict
			}
		}
		return ""
	}
	cs, bad := compareSets([][]workloadReport{set(1.0, 0.98, 1.02, 500), set(1.05, 1.0, 1.1, 500)})
	if bad != 0 || verdict(cs, "wall_s") != verdictUnchanged || verdict(cs, "sim.events") != verdictExact {
		t.Errorf("agreeing sets: bad=%d wall_s=%s sim.events=%s", bad, verdict(cs, "wall_s"), verdict(cs, "sim.events"))
	}
	cs, bad = compareSets([][]workloadReport{set(1.0, 0.8, 1.2, 500), set(1.05, 1.0, 1.1, 500)})
	if bad != 0 || verdict(cs, "wall_s") != verdictUnresolved {
		t.Errorf("wide spread: bad=%d wall_s=%s, want %s", bad, verdict(cs, "wall_s"), verdictUnresolved)
	}
	cs, bad = compareSets([][]workloadReport{set(1.0, 0.98, 1.02, 500), set(1.4, 1.38, 1.42, 501)})
	if bad != 2 || verdict(cs, "wall_s") != verdictDisagree || verdict(cs, "sim.events") != verdictDisagree {
		t.Errorf("disagreeing sets: bad=%d wall_s=%s sim.events=%s", bad, verdict(cs, "wall_s"), verdict(cs, "sim.events"))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-seconds", "0"}, {"-seconds", "61"}, {"-trace", "2"}, {"-repeat", "0"}, {"extra"},
	} {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q to standard output", args, out.String())
		}
	}
}
