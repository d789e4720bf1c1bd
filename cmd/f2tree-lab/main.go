// Command f2tree-lab is the one front end for the paper's experiments: it
// prints the tables and figure series, renders the whole evaluation as one
// markdown report, inspects topologies and their rewiring plans, runs
// custom JSON scenarios and sweeps the detector study.
//
// Usage:
//
//	f2tree-lab [flags] <experiment | all>
//	f2tree-lab report [-quick] [-tables-only] [-j N] [-seed N] [-out file.md]
//	f2tree-lab plan [-scheme f2tree] [-n 8] [-routes] [-draw] [-json]
//	f2tree-lab sim [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <scenario.json | ->
//	f2tree-lab detect [flags]
//
// `f2tree-lab -h` lists the experiments; `f2tree-lab <verb> -h` lists a
// verb's flags.
//
// The multi-run experiments (fig4, fig5, fig6) and the detect sweep execute
// their runs on the campaign worker pool (internal/campaign) with -j
// workers; the output is byte-identical at any -j — per-run seeds derive
// from the run specs, never from scheduling — and -j 1 runs them one after
// the other.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f2tree-lab:", err)
		os.Exit(1)
	}
}

// run dispatches on the first argument: a verb, or else experiment flags
// followed by one experiment id.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "report":
			return runReport(args[1:], stdout, stderr)
		case "plan":
			return runPlan(args[1:], stdout, stderr)
		case "sim":
			return runSim(args[1:], stdin, stdout, stderr)
		case "detect":
			return runDetect(args[1:], stdout, stderr)
		}
	}
	return runExperiments(args, stdout, stderr)
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
