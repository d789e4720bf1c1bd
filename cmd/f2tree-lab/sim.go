package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// runSim runs a custom what-if scenario described in JSON: pick a topology
// and control plane, attach probe flows, and script a timeline of
// link/switch failures; the report carries per-flow outage metrics.
//
// Example scenario:
//
//	{
//	  "scheme": "f2tree", "ports": 8, "seed": 1,
//	  "flows": [{"src": "leftmost", "dst": "rightmost"}],
//	  "events": [
//	    {"atMs": 380, "action": "fail-condition", "condition": "C1", "flow": 0},
//	    {"atMs": 900, "action": "fail-switch", "node": "agg-p0-1"}
//	  ]
//	}
func runSim(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: f2tree-lab sim [flags] <scenario.json | ->")
	}
	r := stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc, err := scenario.Parse(r)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	rep, err := scenario.Run(sc)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	return scenario.WriteReport(stdout, rep)
}
