// Command bench is the repository's benchmark: five workloads, from the data
// plane to what-if serving, each measured end to end by an untraced run and
// layer by layer by a traced one. README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repository root is the contract
// the acceptance driver holds it to.
//
// Usage:
//
//	go run ./bench                       # every workload, untraced then traced
//	go run ./bench -out report.json      # ... and write the report
//	go run ./bench -repeat 2             # two full sets, compared
//	go run ./bench -workload pa_churn_n8 -seed 7 -seconds 20 -trace 1
//
// With -workload the process runs that one workload in itself and prints, as
// the last line of its standard output, the result object of the contract.
// Without it, the process runs each workload in a child process of its own.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/detsort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	seed     int64
	workload string
	out      string
	repeat   int
	seconds  int
	trace    int
}

func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 42, "workload seed (README.md names the held-out seed)")
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	fs.StringVar(&o.out, "out", "", "write the JSON report to this file")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many full sets and compare the first half with the second")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.seconds < 1 || o.seconds > 60:
		return fmt.Errorf("-seconds %d is outside 1 to 60", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d is neither 0 nor 1", o.trace)
	case o.repeat < 1:
		return fmt.Errorf("-repeat %d is below 1", o.repeat)
	}
	ws := workloads()
	if err := validateSpec(ws, e2eMetrics, layerMetrics); err != nil {
		return fmt.Errorf("metric tables: %w", err)
	}
	if o.workload == "" {
		return runAll(o, ws, stdout, stderr)
	}
	for _, w := range ws {
		if w.Name == o.workload {
			return runOne(o, w, stdout)
		}
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}

// metricValue is one metric of the contract's result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result object: the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// timingSummary describes the series behind one timed metric.
type timingSummary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest percentile the sample count supports (ten
	// samples beyond it) and Tail the value there.
	TailPct float64 `json:"tailPct"`
	Tail    float64 `json:"tail"`
}

func summarizeTiming(s sample) timingSummary {
	q1, med, q3 := s.quartiles()
	p := tailPercentile(len(s))
	return timingSummary{N: len(s), Q1: q1, Median: med, Q3: q3, TailPct: p, Tail: s.percentile(p)}
}

// runDetail is everything one run knows beyond the result object.
type runDetail struct {
	Workload string                   `json:"workload"`
	Seed     int64                    `json:"seed"`
	Seconds  int                      `json:"seconds"`
	Traced   bool                     `json:"traced"`
	Result   result                   `json:"result"`
	Timings  map[string]timingSummary `json:"timings"`
	Faults   []string                 `json:"faults,omitempty"`
	Spans    []spanStat               `json:"spans,omitempty"`
	// RawSpans is the span dump; only a run's own -out file carries it.
	RawSpans []span `json:"rawSpans,omitempty"`
}

// detailPrefix marks the detail line a run prints before its result object.
const detailPrefix = "#detail "

// runOne runs one workload in this process.
func runOne(o options, w workloadSpec, stdout io.Writer) error {
	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	res, err := w.run(&runEnv{
		seed: o.seed, budget: time.Duration(o.seconds) * time.Second,
		traced: o.trace == 1, scratch: scratch,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if res.attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", w.Name)
	}

	out := result{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue),
	}
	if o.trace == 1 {
		for _, m := range layerMetrics {
			out.Metrics[m.Name] = metricValue{res.metrics[m.Name], m.Unit}
		}
	} else {
		for _, m := range e2eMetrics {
			v, ok := res.metrics[m.Name]
			if !ok || v <= 0 {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", w.Name, m.Name)
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	detail := runDetail{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1,
		Result: out, Timings: make(map[string]timingSummary), Faults: res.faults,
		Spans: summarize(res.spans),
	}
	for _, name := range detsort.Keys(res.timings) {
		detail.Timings[name] = summarizeTiming(res.timings[name])
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	if o.out != "" {
		detail.RawSpans = res.spans
		if err := writeJSON(o.out, detail); err != nil {
			return err
		}
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s%s\n%s\n", detailPrefix, line, last)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workloadReport is one workload's two runs within a set.
type workloadReport struct {
	Name     string    `json:"name"`
	Loop     string    `json:"loop"`
	EndToEnd runDetail `json:"endToEnd"`
	PerLayer runDetail `json:"perLayer"`
}

// report is the file -out writes.
type report struct {
	Bench      string `json:"bench"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// Claim is null: this benchmark is the measuring stick, it claims no gain.
	Claim *string            `json:"claim"`
	Sets  [][]workloadReport `json:"sets"`
	// Comparison is set by -repeat.
	Comparison []comparison `json:"comparison,omitempty"`
}

// runAll runs every workload, untraced then traced, each in a child process,
// -repeat times over.
func runAll(o options, ws []workloadSpec, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{
		Bench: "f2tree-perfbench", Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds,
	}
	if rep.GOMAXPROCS < 2 {
		fmt.Fprintln(stdout, "warning: GOMAXPROCS < 2: the concurrent serve phases run with one client, ops_per_s on serve_* shows no parallelism")
	}
	failed := 0
	for set := 0; set < o.repeat; set++ {
		var reports []workloadReport
		for _, w := range ws {
			wr := workloadReport{Name: w.Name, Loop: w.loop}
			for trace := 0; trace <= 1; trace++ {
				fmt.Fprintf(stderr, "set %d/%d: %s trace=%d ...\n", set+1, o.repeat, w.Name, trace)
				d, err := runChild(exe, o, w.Name, trace, stderr)
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
				}
				failed += d.Result.Failed
				if trace == 0 {
					wr.EndToEnd = d
				} else {
					wr.PerLayer = d
				}
			}
			reports = append(reports, wr)
			printWorkload(stdout, wr)
		}
		rep.Sets = append(rep.Sets, reports)
	}
	disagreements := 0
	if o.repeat > 1 {
		rep.Comparison, disagreements = compareSets(rep.Sets)
		printComparison(stdout, rep.Comparison)
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.out)
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operation(s) failed", failed)
	case disagreements > 0:
		return fmt.Errorf("%d metric × workload pair(s) disagree between the sets", disagreements)
	}
	return nil
}

// runChild runs one workload run in a child process and parses its output.
func runChild(exe string, o options, name string, trace int, stderr io.Writer) (runDetail, error) {
	var d runDetail
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return d, err
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return d, fmt.Errorf("decoding the run's detail line: %w", err)
			}
			return d, nil
		}
	}
	return d, fmt.Errorf("the run printed no detail line")
}

// printWorkload prints every metric of one workload by name, with its unit,
// and for a timing its sample count, quartiles and supported tail.
func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "\n== %s (%s)\n", wr.Name, wr.Loop)
	for _, d := range []runDetail{wr.EndToEnd, wr.PerLayer} {
		kind := "end-to-end, untraced"
		if d.Traced {
			kind = "per-layer, traced"
		}
		fmt.Fprintf(w, "-- %s: %d attempted, %d failed\n", kind, d.Result.Attempted, d.Result.Failed)
		for _, why := range d.Faults {
			fmt.Fprintf(w, "   FAILED: %s\n", why)
		}
		for _, name := range metricOrder(d.Traced) {
			m := d.Result.Metrics[name]
			fmt.Fprintf(w, "   %-36s %16.6g %-6s", name, m.Value, m.Unit)
			if t, ok := d.Timings[name]; ok {
				fmt.Fprintf(w, " n=%d q1=%.6g median=%.6g q3=%.6g p%g=%.6g", t.N, t.Q1, t.Median, t.Q3, t.TailPct, t.Tail)
			}
			fmt.Fprintln(w)
		}
	}
}

// metricOrder lists the metric names of one kind of run in table order.
func metricOrder(traced bool) []string {
	var names []string
	if traced {
		for _, m := range layerMetrics {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range e2eMetrics {
		names = append(names, m.Name)
	}
	return names
}
