// Command f2tree-report regenerates the complete evaluation — every table
// and figure of the paper plus this repository's extensions — as one
// markdown document.
//
// Usage:
//
//	f2tree-report [-quick] [-tables-only] [-j N] [-seed N] [-out file.md]
//
// The multi-run experiments (Fig 4/5, Fig 6) run on the campaign worker pool
// (internal/campaign) with -j workers; output is byte-identical at any -j
// because per-run seeds derive from the run specs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "f2tree-report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("f2tree-report", flag.ContinueOnError)
	var (
		quick   = fs.Bool("quick", false, "shrink the Fig 6 window to seconds of wall clock")
		tables  = fs.Bool("tables-only", false, "only the closed-form tables and the k=4 testbed")
		seed    = fs.Int64("seed", 42, "simulation seed")
		out     = fs.String("out", "", "output file (default stdout)")
		workers = fs.Int("j", runtime.GOMAXPROCS(0), "worker count for the multi-run experiments (Fig 4/5, Fig 6)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()
	return report.Generate(w, report.Options{Seed: *seed, Quick: *quick, TablesOnly: *tables, Parallel: *workers})
}
