package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/exp"
)

// runDetect runs the production failure-detection study: it sweeps
// recovery mechanism (F²Tree fast reroute, BGP graceful restart, plain BGP
// reconvergence) × detector model (fixed delay, adaptive BFD) over the
// Table IV failure conditions plus the churn faults (flap storms,
// control-plane-only crashes, detector false positives, a random failure
// mix), on the dual-ToR fabric by default. The cells are a
// campaign.KindDetect matrix run on the worker pool; every cell runs under
// the four chaos oracles, and the report is the per-cell recovery time and
// blackhole window in matrix order.
//
// Examples:
//
//	f2tree-lab detect -ports 6 -out detect.json
//	f2tree-lab detect -mechanisms f2tree,gr -conditions C1,flap-storm -double
//
// It fails if any cell violates an oracle, or if -double finds a trace
// divergence between the two sweeps.
func runDetect(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab detect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme     = fs.String("scheme", string(exp.SchemeF2TreeDual), "topology scheme")
		ports      = fs.Int("ports", 8, "switch port count")
		seed       = fs.Int64("seed", 42, "base seed (cell seeds derive from it)")
		mechanisms = fs.String("mechanisms", "", "comma-separated mechanisms: f2tree,gr,reconv (default: all)")
		detectors  = fs.String("detectors", "", "comma-separated detector models: fixed,bfd (default: both)")
		conditions = fs.String("conditions", "", "comma-separated conditions: C1..C7, flap-storm, ctrl-crash, false-detect, rand (default: all)")
		reps       = fs.Int("reps", 1, "seed replicates per cell")
		out        = fs.String("out", "", "write the full result list as JSON here")
		double     = fs.Bool("double", false, "run the sweep twice and require byte-identical traces")
		summary    = fs.Bool("summary", true, "print the per-cell summary table")
		workers    = fs.Int("j", runtime.GOMAXPROCS(0), "worker count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("detect: unexpected arguments %v", fs.Args())
	}

	specs := campaign.Matrix{
		Kind: campaign.KindDetect, Schemes: []exp.Scheme{exp.Scheme(*scheme)}, Ports: []int{*ports},
		Mechanisms: splitCSV(*mechanisms), Detectors: splitCSV(*detectors),
		DetectConditions: splitCSV(*conditions), Reps: *reps, BaseSeed: *seed,
	}.Expand()
	sweep := func() ([]*chaos.DetectorResult, error) {
		return campaign.RunPayloads[*chaos.DetectorResult](specs, campaign.Options{Parallelism: *workers})
	}
	results, err := sweep()
	if err != nil {
		return err
	}
	if *double {
		again, err := sweep()
		if err != nil {
			return fmt.Errorf("second sweep: %w", err)
		}
		for i := range results {
			if results[i].TraceHash != again[i].TraceHash {
				return fmt.Errorf("determinism violation: cell %+v hashed %s then %s",
					results[i].Cell, results[i].TraceHash, again[i].TraceHash)
			}
		}
		fmt.Fprintf(stdout, "double-run: %d cells byte-identical\n", len(results))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *summary {
		printDetectSummary(stdout, results)
	}
	violations := 0
	for _, r := range results {
		violations += r.Violations
	}
	fmt.Fprintf(stdout, "detect: %d cells, %d oracle violation(s)\n", len(results), violations)
	if violations > 0 {
		return fmt.Errorf("%d oracle violation(s)", violations)
	}
	return nil
}

// printDetectSummary renders one line per cell: the blackhole window the
// mechanism left open, plus false positives where the detector issued any.
func printDetectSummary(w io.Writer, results []*chaos.DetectorResult) {
	fmt.Fprintf(w, "%-9s %-6s %-12s %10s %12s %6s\n",
		"mechanism", "detect", "condition", "recovery", "falseDowns", "viol")
	for _, r := range results {
		fd := ""
		if r.FalseDowns > 0 {
			fd = fmt.Sprintf("%d", r.FalseDowns)
		}
		fmt.Fprintf(w, "%-9s %-6s %-12s %8dms %12s %6d\n",
			r.Cell.Mechanism, r.Cell.Detector, r.Cell.Condition, r.RecoveryMs, fd, r.Violations)
	}
}
