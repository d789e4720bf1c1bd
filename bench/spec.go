package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
)

// workloadSpec describes one workload of the benchmark.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// loop says how load is offered; it is documentation, not configuration.
	loop string
	run  func(env *runEnv) (*runResult, error)
}

// e2eSpec is one end-to-end metric, reported by every workload's untraced run.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is one per-layer metric, reported by every workload's traced run
// (as zero by the workloads that do not exercise the layer).
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// moves names the end-to-end metric the layer metric should move and
	// the workloads on which it should; an informational metric names none.
	moves     string
	workloads []string
}

const (
	wRecovery = "recovery_sweep_n8"
	wPA       = "pa_churn_n8"
	wOSPF     = "ctrl_ospf_n16"
	wBGP      = "ctrl_bgp_n12"
	wCold     = "serve_cold_n8"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 20

var e2eMetrics = []e2eSpec{
	{"wall_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MiB", "lower", 0.25},
}

var (
	dataPlane = []string{wRecovery, wPA}
	ctrlPlane = []string{wOSPF, wBGP}
	simulated = []string{wRecovery, wPA, wOSPF, wBGP}
	ospfRuns  = []string{wRecovery, wPA, wOSPF}
	everyone  = []string{wRecovery, wPA, wOSPF, wBGP, wCold}
)

var layerMetrics = []layerSpec{
	{"sim.events", "count", "lower", "wall_s", dataPlane},
	{"sim.events_per_s", "1/s", "higher", "wall_s", dataPlane},
	{"sim.peak_pending", "count", "lower", "wall_s", dataPlane},
	{"sim.ns_per_event", "ns", "lower", "wall_s", dataPlane},

	{"network.new_ms", "ms", "lower", "setup_s", simulated},
	{"network.ns_per_hop", "ns", "lower", "wall_s", []string{wRecovery}},
	{"network.ns_per_hop_nocache", "ns", "lower", "wall_s", []string{wPA}},
	{"network.forwarded", "count", "lower", "wall_s", dataPlane},
	{"network.delivered", "count", "higher", "wall_s", dataPlane},
	{"network.dropped", "count", "lower", "wall_s", dataPlane},
	{"network.drop_frac", "ratio", "lower", "wall_s", dataPlane},

	{"fib.ns_per_lookup_cached", "ns", "lower", "wall_s", []string{wRecovery}},
	{"fib.ns_per_lookup_lpm", "ns", "lower", "wall_s", []string{wPA}},
	{"fib.routes_per_table", "count", "lower", "wall_s", ctrlPlane},
	{"fib.replace_source_us", "us", "lower", "wall_s", ctrlPlane},

	{"ospf.bootstrap_ms", "ms", "lower", "setup_s", ospfRuns},
	{"ospf.spf_full", "count", "lower", "wall_s", []string{wPA, wOSPF}},
	{"ospf.spf_incremental", "count", "higher", "wall_s", []string{wPA, wOSPF}},
	{"ospf.spf_unchanged", "count", "lower", "wall_s", []string{wPA, wOSPF}},
	{"ospf.install_full", "count", "lower", "wall_s", []string{wPA, wOSPF}},
	{"ospf.install_delta", "count", "higher", "wall_s", []string{wPA, wOSPF}},
	{"ospf.linkdown_converge_ms", "ms", "lower", "wall_s", []string{wPA, wOSPF}},
	{"ospf.linkup_converge_ms", "ms", "lower", "wall_s", []string{wPA, wOSPF}},
	{"ospf.linkdown_converge_fullspf_ms", "ms", "lower", "", nil},
	{"ospf.max_spf_wait_ms", "ms", "lower", "wall_s", []string{wPA}},

	{"bgp.bootstrap_ms", "ms", "lower", "setup_s", []string{wBGP}},
	{"bgp.bootstrap_alloc_mb", "MiB", "lower", "alloc_mb", []string{wBGP}},
	{"bgp.updates_rx", "count", "lower", "wall_s", []string{wBGP}},
	{"bgp.linkdown_converge_ms", "ms", "lower", "wall_s", []string{wBGP}},

	{"controller.bootstrap_ms", "ms", "lower", "", nil},

	{"detect.bfd_events_per_sim_s", "1/s", "lower", "wall_s", ctrlPlane},
	{"detect.bfd_ns_per_event", "ns", "lower", "wall_s", ctrlPlane},

	{"transport.stack_new_us", "us", "lower", "setup_s", []string{wPA}},
	{"transport.us_per_segment", "us", "lower", "wall_s", []string{wPA}},
	{"transport.retransmits", "count", "lower", "wall_s", []string{wRecovery}},
	{"transport.timeouts", "count", "lower", "wall_s", []string{wRecovery}},

	{"topo.build_ms", "ms", "lower", "setup_s", simulated},
	{"core.plan_ms", "ms", "lower", "setup_s", simulated},
	{"core.apply_ms", "ms", "lower", "setup_s", simulated},
	{"core.lab_build_ms", "ms", "lower", "setup_s", simulated},

	{"workload.requests", "count", "higher", "wall_s", []string{wPA}},
	{"workload.completed", "count", "higher", "wall_s", []string{wPA}},
	{"workload.bg_flows", "count", "higher", "wall_s", []string{wPA}},
	{"failure.injected", "count", "higher", "wall_s", []string{wPA}},

	{"chaos.generate_ms", "ms", "lower", "wall_s", ctrlPlane},
	{"chaos.run_ms_p50", "ms", "lower", "op_ms_p50", ctrlPlane},
	{"chaos.violations", "count", "lower", "wall_s", ctrlPlane},

	{"campaign.store_append_us", "us", "lower", "op_ms_p50", []string{wCold}},
	{"campaign.store_load_ms", "ms", "lower", "setup_s", []string{wCold}},
	{"campaign.pool_submit_us", "us", "lower", "ops_per_s", []string{wCold}},

	{"serve.answer_hit_us", "us", "lower", "", nil},
	{"serve.http_overhead_us", "us", "lower", "", nil},
	{"serve.cold_ms_p90", "ms", "lower", "wall_s", []string{wCold}},
	{"serve.warm_ms_p50", "ms", "lower", "", nil},
	{"serve.warm_ms_p99", "ms", "lower", "", nil},
	{"serve.hits", "queries", "higher", "", nil},
	{"serve.misses", "queries", "higher", "wall_s", []string{wCold}},
	{"serve.coalesced", "queries", "lower", "ops_per_s", []string{wCold}},
	{"serve.hit_ratio", "ratio", "higher", "", nil},
	{"serve.warmstart_ms", "ms", "lower", "setup_s", []string{wCold}},
	{"serve.parallel_eff", "ratio", "higher", "ops_per_s", []string{wCold}},

	{"phase.steady_ms", "ms", "lower", "wall_s", []string{wRecovery}},
	{"phase.steady_events", "count", "lower", "wall_s", []string{wRecovery}},
	{"phase.detect_ms", "ms", "lower", "wall_s", []string{wRecovery}},
	{"phase.detect_events", "count", "lower", "wall_s", []string{wRecovery}},
	{"phase.converge_ms", "ms", "lower", "wall_s", []string{wRecovery}},
	{"phase.converge_events", "count", "lower", "wall_s", []string{wRecovery}},
	{"phase.tail_ms", "ms", "lower", "wall_s", []string{wRecovery}},
	{"phase.tail_events", "count", "lower", "wall_s", []string{wRecovery}},

	{"paper.err_pct", "%", "lower", "", nil},

	{"go.alloc_mb", "MiB", "lower", "alloc_mb", everyone},
	{"go.gc_cycles", "cycles", "lower", "wall_s", ctrlPlane},
	{"go.gc_cpu_frac", "ratio", "lower", "wall_s", ctrlPlane},
	{"go.peak_rss_mb", "MiB", "lower", "alloc_mb", everyone},
	{"go.gomaxprocs", "procs", "higher", "ops_per_s", []string{wCold}},

	{"trace.overhead_pct", "%", "lower", "", nil},
	{"trace.coverage", "ratio", "higher", "", nil},
}

// workloads lists the benchmark's workloads in the order they run.
func workloads() []workloadSpec {
	return []workloadSpec{
		{wRecovery, "The paper's 12-cell recovery matrix: one long flow per run, so forwarding dominates and the FIB flow cache nearly always hits.",
			"closed, serial", recoveryWorkload().run},
		{wPA, "Partition-aggregate under link churn: thousands of short TCP flows keep the flow cache cold while OSPF throttles SPF, incremental and full.",
			"closed, serial", paWorkload().run},
		{wOSPF, "Link, switch and pod faults on a 266-switch F2Tree under OSPF: SPF, flooding, FIB install and the collector dominate, forwarding does little.",
			"closed, serial", ctrlWorkload(16, exp.ControlOSPF, core.ControlOSPF).run},
		{wBGP, "The same fault recipe on a 140-switch F2Tree under BGP: the other control plane through the same FIB install path, dominated by bootstrap.",
			"closed, serial", ctrlWorkload(12, exp.ControlBGP, core.ControlBGP).run},
		{wCold, "Distinct what-if queries through serve's HTTP handler: every one misses the memoization cache, simulates on the worker pool and appends to the JSONL store.",
			"closed, 1 client then nproc clients", runServe},
	}
}

// validName reports whether n starts with a letter or digit and is made of at
// most 64 letters, digits, '_', '.' and '-'.
func validName(n string) bool {
	if n == "" || len(n) > 64 {
		return false
	}
	for i, r := range n {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", r)) {
			return false
		}
	}
	return true
}

// validateSpec checks the metric and workload tables against the limits of
// the benchmark contract and against each other.
func validateSpec(ws []workloadSpec, e2e []e2eSpec, layers []layerSpec) error {
	if len(ws) < 2 || len(ws) > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", len(ws))
	}
	if len(e2e) < 1 || len(e2e) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", len(e2e))
	}
	if len(layers) < 1 || len(layers) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", len(layers))
	}
	seen := make(map[string]bool)
	name := func(n string) error {
		if !validName(n) {
			return fmt.Errorf("name %q is not 1 to 64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	direction := func(n, better string) error {
		if better != "lower" && better != "higher" {
			return fmt.Errorf("%s: better is %q, want lower or higher", n, better)
		}
		return nil
	}
	isWorkload := make(map[string]bool)
	for _, w := range ws {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("%s: the reason must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
		isWorkload[w.Name] = true
	}
	isE2E := make(map[string]bool)
	hasSetup := false
	for _, m := range e2e {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := direction(m.Name, m.Better); err != nil {
			return err
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %v is outside 0 to 0.25", m.Name, m.Bound)
		}
		isE2E[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	for _, m := range layers {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := direction(m.Name, m.Better); err != nil {
			return err
		}
		if m.moves == "" && len(m.workloads) == 0 {
			continue // informational
		}
		if !isE2E[m.moves] {
			return fmt.Errorf("%s: moves %q, which is not an end-to-end metric", m.Name, m.moves)
		}
		if len(m.workloads) == 0 {
			return fmt.Errorf("%s: moves %s on no workload", m.Name, m.moves)
		}
		for _, w := range m.workloads {
			if !isWorkload[w] {
				return fmt.Errorf("%s: moves %s on %q, which is not a workload", m.Name, m.moves, w)
			}
		}
	}
	return nil
}
