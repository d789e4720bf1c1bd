package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/failure"
)

// runCampaign runs a batch experiment campaign: it expands a declarative
// run matrix (scheme × ports × failure condition × control plane × seed
// replicate) into independent runs and executes them on the worker pool
// with panic isolation, per-run timeouts, bounded retry and a resumable
// JSONL result store (see internal/campaign and DESIGN.md §8).
//
// Examples:
//
//	f2tree-lab campaign -preset fig4 -j 4 -out fig4.jsonl
//	f2tree-lab campaign -kind recovery -schemes fattree,f2tree -conditions C1,C4 \
//	    -reps 5 -j 8 -out sweep.jsonl -agg sweep-agg.jsonl
//
// Re-invoking with the same -out resumes: runs whose spec hash already has
// an ok record are skipped.
func runCampaign(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset     = fs.String("preset", "", "predefined matrix: fig4, fig6, detectors or smoke (overrides matrix flags)")
		kind       = fs.String("kind", "recovery", "experiment kind: recovery, pa, chaos or detect")
		schemes    = fs.String("schemes", "fattree,f2tree", "comma-separated schemes")
		ports      = fs.String("ports", "8", "comma-separated switch port counts")
		conditions = fs.String("conditions", "", "comma-separated conditions: Table IV labels, plus churn faults for -kind detect (default: all applicable)")
		controls   = fs.String("controls", "ospf", "comma-separated control planes (recovery): ospf,bgp,centralized")
		channels   = fs.String("channels", "1", "comma-separated concurrent-failure levels (pa)")
		mechanisms = fs.String("mechanisms", "", "comma-separated recovery mechanisms (detect): f2tree,gr,reconv (default: all)")
		detectors  = fs.String("detectors", "", "comma-separated detector models (detect): fixed,bfd (default: both)")
		reps       = fs.Int("reps", 1, "seed replicates per matrix cell")
		seed       = fs.Int64("seed", 42, "campaign base seed (per-run seeds derive from it)")
		horizon    = fs.Duration("horizon", 0, "recovery run length override (0 = paper default 2s)")
		paDuration = fs.Duration("pa-duration", 0, "pa workload window override (0 = paper default 600s)")
		noBG       = fs.Bool("no-background", false, "pa: skip background traffic")

		pool    = addPoolFlags(fs, 10*time.Minute)
		retries = fs.Int("retries", 1, "extra attempts per run after the first")
		aggOut  = fs.String("agg", "", "write aggregated JSONL here (default: alongside -out as *.agg.jsonl)")
		summary = fs.Bool("summary", true, "print the aggregate summary table")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(stderr, "f2tree-lab:", perr)
		}
	}()

	specs, err := expandFlags(*preset, *kind, *schemes, *ports, *conditions, *controls,
		*channels, *mechanisms, *detectors, *reps, *seed, *horizon, *paDuration, *noBG)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("empty matrix")
	}
	opts, err := pool.options(*retries, stderr)
	if err != nil {
		return err
	}
	if opts.Store != nil {
		defer opts.Store.Close()
	}

	res, err := campaign.Run(specs, campaign.ExperimentRunner(), opts)
	if err != nil {
		return err
	}

	aggs := campaign.AggregateResults(res.Results)
	aggPath := *aggOut
	if aggPath == "" && *pool.out != "" {
		aggPath = strings.TrimSuffix(*pool.out, ".jsonl") + ".agg.jsonl"
	}
	if aggPath != "" {
		f, err := os.Create(aggPath)
		if err != nil {
			return err
		}
		if err := campaign.WriteAggregateJSONL(f, aggs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *summary {
		fmt.Fprint(stdout, campaign.SummaryTable(aggs))
	}
	fmt.Fprintf(stdout, "campaign: %d runs (%d skipped via resume), %d failed\n",
		len(res.Results), res.Skipped, res.Failed)
	if res.Failed > 0 {
		return fmt.Errorf("%d run(s) failed — see the result store for errors", res.Failed)
	}
	return nil
}

// poolFlags are the worker-pool flags the campaign and chaos verbs share.
type poolFlags struct {
	j       *int
	timeout *time.Duration
	out     *string
	quiet   *bool
}

func addPoolFlags(fs *flag.FlagSet, timeout time.Duration) poolFlags {
	return poolFlags{
		j:       fs.Int("j", runtime.GOMAXPROCS(0), "parallel workers"),
		timeout: fs.Duration("timeout", timeout, "real-time budget per run attempt (0 = none)"),
		out:     fs.String("out", "", "JSONL result store (enables resume)"),
		quiet:   fs.Bool("q", false, "suppress the progress line"),
	}
}

// options assembles the pool options and opens the -out store, if one is
// named, printing its load warnings. The caller closes opts.Store when it
// is set.
func (p poolFlags) options(retries int, stderr io.Writer) (campaign.Options, error) {
	opts := campaign.Options{Parallelism: *p.j, Timeout: *p.timeout, Retries: retries}
	if !*p.quiet {
		opts.Progress = stderr
	}
	if *p.out != "" {
		store, err := campaign.OpenStore(*p.out)
		if err != nil {
			return opts, err
		}
		for _, w := range store.Warnings() {
			fmt.Fprintln(stderr, "f2tree-lab: warning:", w)
		}
		opts.Store = store
	}
	return opts, nil
}

// expandFlags builds the spec list from the preset or the matrix flags.
func expandFlags(preset, kind, schemes, ports, conditions, controls, channels, mechanisms, detectors string,
	reps int, seed int64, horizon, paDuration time.Duration, noBG bool) ([]campaign.Spec, error) {
	switch preset {
	case "fig4":
		return campaign.Fig4Matrix(seed).Expand(), nil
	case "fig6":
		return campaign.Fig6Matrix(seed, int(paDuration/time.Millisecond), noBG).Expand(), nil
	case "detectors":
		return campaign.DetectorsMatrix(seed).Expand(), nil
	case "smoke":
		// Fast CI matrix: the k=4 testbed pair, shortened horizon.
		return campaign.Matrix{
			Kind:       campaign.KindRecovery,
			Schemes:    []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Proto},
			Ports:      []int{4},
			Conditions: []failure.Condition{failure.C1},
			Reps:       2,
			BaseSeed:   seed,
			HorizonMS:  900,
		}.Expand(), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown preset %q (want fig4, fig6, detectors or smoke)", preset)
	}

	m := campaign.Matrix{
		Kind: campaign.Kind(kind), Reps: reps, BaseSeed: seed,
		HorizonMS: int(horizon / time.Millisecond), DurationMS: int(paDuration / time.Millisecond),
		NoBackground: noBG, SkipInapplicable: true,
	}
	for _, s := range splitCSV(schemes) {
		m.Schemes = append(m.Schemes, exp.Scheme(s))
	}
	var err error
	if m.Ports, err = parseInts(ports); err != nil {
		return nil, fmt.Errorf("-ports: %w", err)
	}
	if m.Kind == campaign.KindDetect {
		// Detect conditions are a superset of the Table IV labels; they
		// stay strings and Spec.Validate checks them against the catalog.
		m.DetectConditions = splitCSV(conditions)
	} else if conditions == "" {
		m.Conditions = failure.AllConditions()
	} else {
		for _, label := range splitCSV(conditions) {
			c, err := failure.ParseCondition(label)
			if err != nil {
				return nil, err
			}
			m.Conditions = append(m.Conditions, c)
		}
	}
	m.Controls = splitCSV(controls)
	m.Mechanisms = splitCSV(mechanisms)
	m.Detectors = splitCSV(detectors)
	if m.Channels, err = parseInts(channels); err != nil {
		return nil, fmt.Errorf("-channels: %w", err)
	}
	return m.Expand(), nil
}
