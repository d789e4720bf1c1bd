package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/detsort"
	"repro/internal/sim"
)

// opResult is one operation: a recovery cell, a partition-aggregate run, a
// chaos scenario or a served query.
type opResult struct {
	ms float64 // host time
	// digest is every simulated figure the operation produced; the traced
	// and the untraced pass of one input must agree on it.
	digest string
	// fault, when set, is why the operation counts as failed.
	fault string
}

// runEnv is what one invocation hands the workload it runs.
type runEnv struct {
	seed    int64
	budget  time.Duration
	traced  bool
	scratch string // a directory the run may write to, removed afterwards
}

// runResult is what a workload run reports.
type runResult struct {
	attempted, failed int
	faults            []string
	// metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	metrics map[string]float64
	// timings are the series behind the timed metrics, for the quartiles
	// and sample counts of the detailed report.
	timings map[string]sample
	spans   []span
}

func newRunResult() *runResult {
	return &runResult{metrics: make(map[string]float64), timings: make(map[string]sample)}
}

func (r *runResult) record(ops []opResult) {
	for _, op := range ops {
		r.attempted++
		if op.fault != "" {
			r.fail(op.fault)
		}
	}
}

// memMeter measures what the process allocates, and how often it collects,
// over an interval.
type memMeter struct {
	alloc  uint64
	cycles uint32
}

func startMemMeter() memMeter {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return memMeter{mem.TotalAlloc, mem.NumGC}
}

// since returns the MiB allocated and the collections run since the start.
func (m memMeter) since() (allocMB, cycles float64) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.TotalAlloc-m.alloc) / (1 << 20), float64(mem.NumGC - m.cycles)
}

// gcCPUFraction is the share of the process's CPU time the collector took.
func gcCPUFraction() float64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.GCCPUFraction
}

// endToEnd fills in the five end-to-end metrics of an untraced run; allocMB
// is what the measured passes allocated in all.
func (r *runResult) endToEnd(passes, opMs, setup sample, opsPerS, allocMB float64) {
	r.timings["wall_s"] = passes
	r.timings["op_ms_p50"] = opMs
	r.timings["setup_s"] = setup
	r.metrics["wall_s"] = passes.median()
	r.metrics["op_ms_p50"] = opMs.median()
	r.metrics["ops_per_s"] = opsPerS
	r.metrics["setup_s"] = setup.median()
	r.metrics["alloc_mb"] = allocMB / float64(len(passes))
}

func (r *runResult) fail(why string) {
	r.failed++
	if len(r.faults) < 20 {
		r.faults = append(r.faults, why)
	}
}

// labShape is a lab a pass builds, with how many of them it builds.
type labShape struct {
	ls      labSpec
	perPass int
}

// simWorkload is a serial closed-loop workload over the simulator: a pass is
// a fixed recipe of operations whose inputs are drawn from the pass seed.
type simWorkload struct {
	shapes []labShape
	// pass runs one pass. With a tracer in the scope it records spans and,
	// if c is non-nil, the layer counters.
	pass func(sc scope, passSeed int64, c layerCounts) ([]opResult, error)
	// kernels drive single layers on a quiet lab of the workload's shape.
	kernels func(k *kernelEnv)
}

// passSeed derives pass k's input seed from the run seed.
func passSeed(seed int64, k int) int64 {
	return sim.DeriveSeed(seed, "bench-pass", strconv.Itoa(k))
}

// digestOf folds the operations' digests into one.
func digestOf(ops []opResult) string {
	h := sha256.New()
	for _, op := range ops {
		h.Write([]byte(op.digest))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timedPass runs one pass with the collector quiesced first, so that a pass
// pays for its own garbage and not for the previous one's.
func (w *simWorkload) timedPass(sc scope, seed int64, c layerCounts) ([]opResult, time.Duration, error) {
	runtime.GC()
	begin := now()
	ops, err := w.pass(sc, seed, c)
	return ops, since(begin), err
}

// fits reports whether another pass of the median length seen so far still
// ends inside the budget.
func fits(begin time.Time, budget time.Duration, passes sample) bool {
	return len(passes) == 0 || since(begin)+time.Duration(passes.median()*float64(time.Second)) <= budget
}

// setupReps is how many times a run sets up.
const setupReps = 7

// measureSetup times building each lab shape several times and returns, per
// repetition, the set-up time of one pass: the sum over the pass's labs. A
// small lab is built several times per repetition and averaged, so that a
// repetition times at least a tenth of a second's work.
func (w *simWorkload) measureSetup(reps int) (sample, error) {
	out := make(sample, reps)
	for _, sh := range w.shapes {
		begin := now()
		if _, err := buildLab(scope{}, sh.ls); err != nil {
			return nil, err
		}
		builds := int(100*time.Millisecond/(since(begin)+1)) + 1
		if builds > 16 {
			builds = 16
		}
		for i := 0; i < reps; i++ {
			runtime.GC()
			begin := now()
			for j := 0; j < builds; j++ {
				if _, err := buildLab(scope{}, sh.ls); err != nil {
					return nil, err
				}
			}
			out[i] += seconds(since(begin)) / float64(builds) * float64(sh.perPass)
		}
	}
	return out, nil
}

// run measures the workload: untraced for the end-to-end metrics, or traced
// (each traced pass paired with an untraced pass of the same input) for the
// per-layer ones.
func (w *simWorkload) run(env *runEnv) (*runResult, error) {
	if env.traced {
		return w.runTraced(env)
	}
	res := newRunResult()
	setup, err := w.measureSetup(setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var passes, opMs sample
	meter := startMemMeter()
	begin := now()
	for k := 0; fits(begin, env.budget, passes); k++ {
		ops, took, err := w.timedPass(scope{}, passSeed(env.seed, k), nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", k, err)
		}
		res.record(ops)
		passes = append(passes, seconds(took))
		for _, op := range ops {
			opMs = append(opMs, op.ms)
		}
	}
	allocMB, _ := meter.since()
	res.endToEnd(passes, opMs, setup, float64(len(opMs))/passes.sum(), allocMB)
	return res, nil
}

func (w *simWorkload) runTraced(env *runEnv) (*runResult, error) {
	res := newRunResult()
	tr := newTracer()
	counts := make(layerCounts)

	// An untraced run sets up before its first pass; build the labs once
	// here too, so that the first pair does not also pay for a cold heap.
	if _, err := w.measureSetup(1); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Half the budget goes to the paired passes, the rest to the kernels.
	var plain, traced, pairs sample
	meter := startMemMeter()
	begin := now()
	for k := 0; fits(begin, env.budget/2, pairs); k++ {
		seed := passSeed(env.seed, k)
		ops, took, err := w.timedPass(scope{}, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", k, err)
		}
		var c layerCounts
		if k == 0 {
			c = counts
		}
		root := tr.begin(noSpan, k, "pass")
		tops, ttook, err := w.timedPass(scope{tr: tr, parent: root, run: k}, seed, c)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", k, err)
		}
		res.record(tops)
		if a, b := digestOf(ops), digestOf(tops); a != b {
			res.fail(fmt.Sprintf("pass %d: traced digest %s differs from untraced %s", k, b, a))
		}
		plain = append(plain, seconds(took))
		traced = append(traced, seconds(ttook))
		pairs = append(pairs, seconds(took+ttook))
	}
	allocMB, cycles := meter.since()

	for _, name := range detsort.Keys(counts) {
		res.metrics[name] = counts[name]
	}
	m := res.metrics
	m["sim.events_per_s"] = counts["sim.events"] / traced[0]
	if sent := counts["network.delivered"] + counts["network.dropped"]; sent > 0 {
		m["network.drop_frac"] = counts["network.dropped"] / sent
	}
	m["go.alloc_mb"] = allocMB / float64(2*len(pairs))
	m["go.gc_cycles"] = cycles / float64(2*len(pairs))
	m["go.gc_cpu_frac"] = gcCPUFraction()
	m["go.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["trace.overhead_pct"] = (traced.median()/plain.median() - 1) * 100
	res.timings["trace.plain_pass_s"] = plain
	res.timings["trace.traced_pass_s"] = traced

	if w.kernels != nil {
		root := tr.begin(noSpan, -1, "kernels")
		k := &kernelEnv{sc: scope{tr: tr, parent: root, run: -1}, res: res, counts: counts, seed: env.seed}
		w.kernels(k)
		tr.end(root)
		if k.err != nil {
			return nil, fmt.Errorf("kernel: %w", k.err)
		}
	}
	res.spans = tr.spans
	spanMetrics(res)
	m["go.peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// spanMetric maps a span name onto the per-layer metric it feeds.
type spanMetric struct {
	metric, span string
	// perPass sums the spans of each pass (the metric splits a pass's wall
	// time) and takes the median pass; otherwise the metric is the median
	// duration of one call.
	perPass bool
	scale   float64 // ms × scale = the metric's unit
}

var spanFed = []spanMetric{
	{"topo.build_ms", "topo.build", false, 1},
	{"network.new_ms", "network.new", false, 1},
	{"ospf.bootstrap_ms", "ospf.bootstrap", false, 1},
	{"bgp.bootstrap_ms", "bgp.bootstrap", false, 1},
	{"controller.bootstrap_ms", "controller.bootstrap", false, 1},
	{"core.plan_ms", "core.plan", false, 1},
	{"core.apply_ms", "core.apply", false, 1},
	{"core.lab_build_ms", "core.lab_build", false, 1},
	{"transport.stack_new_us", "transport.stack_new", false, 1000},
	{"chaos.generate_ms", "chaos.generate", false, 1},
	{"chaos.run_ms_p50", "chaos.run", false, 1},
	{"serve.warmstart_ms", "serve.warmstart", false, 1},
	{"phase.steady_ms", "phase.steady", true, 1},
	{"phase.detect_ms", "phase.detect", true, 1},
	{"phase.converge_ms", "phase.converge", true, 1},
	{"phase.tail_ms", "phase.tail", true, 1},
}

// spanMetrics derives the span-fed per-layer metrics and the trace coverage.
func spanMetrics(res *runResult) {
	for _, sm := range spanFed {
		var series sample
		if sm.perPass {
			perRun := make(map[int]float64)
			for _, s := range res.spans {
				if s.Name == sm.span {
					perRun[s.Run] += millis(s.dur()) * sm.scale
				}
			}
			for _, run := range detsort.Keys(perRun) {
				series = append(series, perRun[run])
			}
		} else {
			for _, s := range res.spans {
				if s.Name == sm.span {
					series = append(series, millis(s.dur())*sm.scale)
				}
			}
		}
		if len(series) > 0 {
			res.timings[sm.metric] = series
			res.metrics[sm.metric] = series.median()
		}
	}
	// Coverage: the share of the traced passes' wall time that lies inside
	// some layer's span, rather than in the self time of the pass and
	// operation spans that only group them.
	self := selfTimes(res.spans)
	var total, own time.Duration
	for i, s := range res.spans {
		if s.Name == "pass" {
			total += s.dur()
		}
		if s.Name == "pass" || strings.HasPrefix(s.Name, "op.") {
			own += self[i]
		}
	}
	if total > 0 {
		res.metrics["trace.coverage"] = 1 - float64(own)/float64(total)
	}
}
