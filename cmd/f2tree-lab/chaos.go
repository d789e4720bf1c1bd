package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
)

// runChaos drives the chaos engine (internal/chaos): it fuzzes seeded fault
// scenarios across topologies and control planes, checks every run against
// the four invariant oracles (forwarding loops, packet conservation,
// blackhole windows, FIB consistency), shrinks any violation to a minimal
// replayable scenario file, and replays such files.
//
// Examples:
//
//	f2tree-lab chaos -n 30 -schemes f2tree -controls ospf,bgp,centralized -j 8
//	f2tree-lab chaos -replay testdata/equal-prefix-c4.json
//	f2tree-lab chaos -demo -artifacts out/
//
// Fuzz mode exits nonzero if any scenario violates an oracle, after writing
// each violation's shrunk repro into -artifacts. The -demo mode runs the
// deliberately mis-configured equal-prefix scenario and must find the loop.
func runChaos(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemes  = fs.String("schemes", "f2tree", "comma-separated schemes to fuzz")
		ports    = fs.String("ports", "8", "comma-separated switch port counts")
		controls = fs.String("controls", "ospf,bgp,centralized", "comma-separated control planes")
		n        = fs.Int("n", 10, "scenarios per scheme × ports × control cell")
		seed     = fs.Int64("seed", 42, "campaign base seed (scenario seeds derive from it)")
		pool     = addPoolFlags(fs, 5*time.Minute)
		artDir   = fs.String("artifacts", "", "directory for shrunk violation scenarios (default: alongside -out, else .)")
		maxRuns  = fs.Int("shrink-runs", 64, "execution budget per shrink")
		replay   = fs.String("replay", "", "replay one scenario file and print its verdict")
		demo     = fs.Bool("demo", false, "run the known-bad equal-prefix demo and shrink its repro")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	dir := *artDir
	if dir == "" {
		if *pool.out != "" {
			dir = filepath.Dir(*pool.out)
		} else {
			dir = "."
		}
	}

	if *replay != "" {
		return runReplay(stdout, *replay)
	}
	if *demo {
		return runDemo(stdout, dir, *maxRuns)
	}
	// The fuzz matrix is the campaign verb's -kind chaos matrix.
	specs, err := expandFlags("", string(campaign.KindChaos), *schemes, *ports, "", *controls,
		"", "", "", *n, *seed, 0, 0, false)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("empty matrix")
	}
	opts, err := pool.options(1, stderr)
	if err != nil {
		return err
	}
	if opts.Store != nil {
		defer opts.Store.Close()
	}
	return runFuzz(stdout, specs, opts, dir, *maxRuns)
}

// runReplay executes one scenario file and prints the verdict.
func runReplay(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sc, err := chaos.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	v, err := chaos.RunScenario(sc)
	if err != nil {
		return err
	}
	printVerdict(stdout, path, v)
	if v.Violated() {
		return fmt.Errorf("%d oracle violation(s)", len(v.Violations))
	}
	return nil
}

// runDemo runs the known-bad equal-prefix configuration, requires the loop
// oracle to fire, and writes the shrunk minimal repro.
func runDemo(stdout io.Writer, dir string, shrinkRuns int) error {
	sc, err := chaos.KnownBad(8)
	if err != nil {
		return err
	}
	v, err := chaos.RunScenario(sc)
	if err != nil {
		return err
	}
	printVerdict(stdout, "known-bad equal-prefix C4", v)
	if !v.Violated() {
		return fmt.Errorf("demo did not trip any oracle — the detector is broken")
	}
	res, err := chaos.Shrink(sc, shrinkRuns)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "equal-prefix-c4-shrunk.json")
	if err := writeScenario(path, res.Scenario); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "demo: shrunk %d faults → %d in %d runs → %s\n",
		len(sc.Faults), len(res.Scenario.Faults), res.Runs, path)
	return nil
}

// runFuzz runs the chaos specs on the campaign pool, and shrinks and
// persists every violating scenario, resumed ones included.
func runFuzz(stdout io.Writer, specs []campaign.Spec, opts campaign.Options, artifacts string, shrinkRuns int) error {
	res, err := campaign.Run(specs, campaign.ExperimentRunner(), opts)
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d run(s) failed — see the result store for errors", res.Failed)
	}

	violations := 0
	var transient uint64
	for _, r := range res.Results {
		var sc *chaos.Scenario
		if oc, ok := res.Payloads[r.Spec.Hash()].(*campaign.ChaosOutcome); ok {
			transient += oc.Verdict.TransientLoops
			if !oc.Verdict.Violated() {
				continue
			}
			fmt.Fprintf(stdout, "VIOLATION %s:\n", r.Spec.Key())
			for _, viol := range oc.Verdict.Violations {
				fmt.Fprintf(stdout, "  [%s] flow %d: %s\n", viol.Oracle, viol.Flow, viol.Detail)
			}
			sc = oc.Scenario
		} else {
			// Resumed from the store: only the metrics were kept, and the
			// scenario is a pure function of the spec's derived seed.
			transient += uint64(r.Metrics["transient_loops"])
			if r.Metrics["violations"] == 0 {
				continue
			}
			fmt.Fprintf(stdout, "VIOLATION %s:\n  %d violation(s) recorded in the store\n",
				r.Spec.Key(), int(r.Metrics["violations"]))
			if sc, err = chaos.Generate(chaos.FuzzConfig{
				Scheme: r.Spec.Scheme, Ports: r.Spec.Ports, Control: r.Spec.Control,
			}, r.Spec.Seed()); err != nil {
				return err
			}
		}
		violations++
		shr, err := chaos.Shrink(sc, shrinkRuns)
		if err != nil {
			return err
		}
		if shr != nil {
			sc = shr.Scenario
		}
		path := filepath.Join(artifacts, "chaos-"+r.Spec.Hash()+".json")
		if err := writeScenario(path, sc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  shrunk to %d fault(s) → %s\n", len(sc.Faults), path)
	}
	fmt.Fprintf(stdout, "chaos: %d scenarios (%d resumed), %d violation(s), %d transient loops excused\n",
		len(res.Results), res.Skipped, violations, transient)
	if violations > 0 {
		return fmt.Errorf("%d scenario(s) violated an oracle — repros written to %s", violations, artifacts)
	}
	return nil
}

func printVerdict(w io.Writer, label string, v *chaos.Verdict) {
	fmt.Fprintf(w, "%s: sent %d delivered %d dropped %d (injected %d), %d transient loops, horizon %d ms budget %d ms\n",
		label, v.Sent, v.Delivered, v.Drops, v.Injected, v.TransientLoops, v.HorizonMs, v.BudgetMs)
	sorted := append([]chaos.Violation(nil), v.Violations...)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].Oracle < sorted[k].Oracle })
	for _, viol := range sorted {
		fmt.Fprintf(w, "  [%s] flow %d: %s\n", viol.Oracle, viol.Flow, viol.Detail)
	}
}

func writeScenario(path string, sc *chaos.Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chaos.Write(f, sc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
