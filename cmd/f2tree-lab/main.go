// Command f2tree-lab is the one front end for the paper's experiments: it
// prints the tables and figure series, renders the whole evaluation as one
// markdown report, inspects topologies and their rewiring plans, runs
// custom JSON scenarios, sweeps the detector study, runs batch campaigns
// into a resumable store and fuzzes fault scenarios under the invariant
// oracles.
//
// Usage:
//
//	f2tree-lab [flags] <experiment | all>
//	f2tree-lab report [-quick] [-tables-only] [-j N] [-seed N] [-out file.md]
//	f2tree-lab plan [-scheme f2tree] [-n 8] [-routes] [-draw] [-json]
//	f2tree-lab sim [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <scenario.json | ->
//	f2tree-lab detect [flags]
//	f2tree-lab campaign [-preset fig4|fig6|detectors|smoke] [matrix flags] [-j N] [-out runs.jsonl]
//	f2tree-lab chaos [-n 10] [-schemes ...] [-controls ...] [-out runs.jsonl] | -replay file.json | -demo
//
// `f2tree-lab -h` lists the experiments and verbs; `f2tree-lab <verb> -h`
// lists a verb's flags.
//
// The multi-run experiments (fig4, fig5, fig6), the detect sweep, campaigns
// and the chaos fuzz execute their runs on the campaign worker pool
// (internal/campaign) with -j workers; the output is byte-identical at any
// -j — per-run seeds derive from the run specs, never from scheduling — and
// -j 1 runs them one after the other.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f2tree-lab:", err)
		os.Exit(1)
	}
}

// verbs are the subcommands: run dispatches on them and the usage text
// lists them.
var verbs = []struct {
	name string
	run  func(args []string, stdin io.Reader, stdout, stderr io.Writer) error
}{
	{"report", runReport},
	{"plan", runPlan},
	{"sim", runSim},
	{"detect", runDetect},
	{"campaign", runCampaign},
	{"chaos", runChaos},
}

// run dispatches on the first argument: a verb, or else experiment flags
// followed by one experiment id.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		for _, v := range verbs {
			if v.name == args[0] {
				return v.run(args[1:], stdin, stdout, stderr)
			}
		}
	}
	return runExperiments(args, stdout, stderr)
}

func verbNames() string {
	names := make([]string, len(verbs))
	for i, v := range verbs {
		names[i] = v.name
	}
	return strings.Join(names, "|")
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitCSV(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
