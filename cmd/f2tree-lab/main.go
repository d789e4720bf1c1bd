// Command f2tree-lab runs the paper's experiments and prints the tables
// and figure series they produce.
//
// Usage:
//
//	f2tree-lab [flags] <experiment>
//
// Experiments: table1, fig2, table3, table4, fig4, fig5, fig6, fig7, all.
//
// The multi-run experiments (fig4, fig5, fig6) execute their runs on the
// campaign worker pool (internal/campaign) with -j workers; the output is
// byte-identical at any -j — per-run seeds derive from the run specs, never
// from scheduling — and -j 1 runs them one after the other.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "f2tree-lab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("f2tree-lab", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 42, "simulation seed")
		ports    = fs.Int("n", 8, "switch port count for table1")
		duration = fs.Duration("duration", 600*time.Second, "fig6 workload window")
		noBG     = fs.Bool("no-background", false, "fig6: skip background traffic")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "worker count for the multi-run experiments (fig4, fig5, fig6)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runFig4 := func() (*exp.Fig4Results, error) {
		return campaign.RunFig4(*seed, campaign.Options{Parallelism: *workers})
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one experiment: table1, fig2, table3, table4, fig4, fig5, fig6, fig7, protocols, all")
	}
	name := fs.Arg(0)

	experiments := map[string]func() error{
		"table1": func() error {
			s, err := exp.Table1String(*ports)
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		},
		"table4": func() error {
			fmt.Print(exp.Table4String())
			return nil
		},
		"fig2": func() error {
			res, err := exp.RunFig2Table3(*seed)
			if err != nil {
				return err
			}
			fmt.Print(res.Fig2String())
			return nil
		},
		"table3": func() error {
			res, err := exp.RunFig2Table3(*seed)
			if err != nil {
				return err
			}
			fmt.Print(res.Table3String())
			return nil
		},
		"fig4": func() error {
			res, err := runFig4()
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		},
		"fig5": func() error {
			res, err := runFig4()
			if err != nil {
				return err
			}
			fmt.Print(res.Fig5String())
			return nil
		},
		"fig6": func() error {
			res, err := campaign.RunFig6(*seed, int(*duration/time.Millisecond), *noBG,
				campaign.Options{Parallelism: *workers})
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		},
		"fig7": func() error {
			res, err := exp.RunFig7(*seed)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		},
		"protocols": func() error {
			res, err := exp.RunProtocols(*seed)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		},
		"bisection": func() error {
			for _, scheme := range []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree} {
				res, err := exp.RunBisection(exp.BisectionOptions{Scheme: scheme, Ports: 8, Seed: *seed})
				if err != nil {
					return err
				}
				fmt.Println(res.Fmt())
			}
			fmt.Println("(absolute efficiency bounded by per-flow ECMP collisions on both fabrics; §II-D)")
			return nil
		},
		"sweep": func() error {
			det, err := exp.RunDetectionSweep(*seed)
			if err != nil {
				return err
			}
			fmt.Print(det.String())
			fib, err := exp.RunFIBSweep(*seed)
			if err != nil {
				return err
			}
			fmt.Print(fib.String())
			return nil
		},
	}
	if name == "all" {
		for _, n := range []string{"table1", "table4", "fig2", "table3", "fig4", "fig5", "fig6", "fig7", "protocols"} {
			fmt.Printf("==== %s ====\n", n)
			if err := experiments[n](); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := experiments[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return fn()
}
