package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/topo"
	"repro/internal/vis"
)

// runPlan builds a topology and prints its structure, the F²Tree rewiring
// summary and the backup-route configuration the scheme installs — the
// operational artifact an operator would review before rewiring a
// production pod (paper Table II).
func runPlan(args []string, _ io.Reader, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme   = fs.String("scheme", "f2tree", "topology scheme (fattree, f2tree, f2tree-proto, f2tree-wide, leafspine, f2leafspine, vl2, f2vl2, aspen)")
		n        = fs.Int("n", 8, "switch port count")
		routes   = fs.Bool("routes", false, "dump every backup route (Table II rows)")
		draw     = fs.Bool("draw", false, "render a pod/ring diagram")
		jsonDump = fs.Bool("json", false, "export the topology as JSON to stdout and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("plan: unexpected arguments %v", fs.Args())
	}
	tp, err := exp.BuildTopology(exp.Scheme(*scheme), *n)
	if err != nil {
		return err
	}
	if err := tp.Validate(); err != nil {
		return err
	}
	if *jsonDump {
		return tp.WriteJSON(w)
	}
	fmt.Fprintf(w, "topology %s\n", tp.Name)
	fmt.Fprintf(w, "  switches: %d (tor %d, agg %d, core %d)\n", tp.SwitchCount(),
		len(tp.NodesOfKind(topo.ToR)), len(tp.NodesOfKind(topo.Agg)), len(tp.NodesOfKind(topo.Core)))
	fmt.Fprintf(w, "  hosts:    %d\n", tp.HostCount())
	fmt.Fprintf(w, "  links:    %d live\n", len(tp.LiveLinks()))
	fmt.Fprintf(w, "  DCN prefix %v, covering %v\n", tp.Plan.DCNPrefix, tp.Plan.Covering)
	an := tp.Analyze()
	fmt.Fprintf(w, "  switch diameter %d, inter-pod shortest-path diversity %d\n",
		an.Diameter, an.InterPodPaths)
	if *draw {
		fmt.Fprint(w, vis.Topology(tp))
	}

	if len(tp.Rings) == 0 {
		fmt.Fprintln(w, "  no rings: not an F²Tree variant, nothing to configure")
		return nil
	}
	plan, err := core.PlanBackupRoutes(tp)
	if err != nil {
		return err
	}
	s := core.Summarize(tp, plan)
	fmt.Fprintf(w, "rewiring summary\n")
	fmt.Fprintf(w, "  rings: %d   across links: %d   switches rewired: %d   backup routes: %d\n",
		s.Rings, s.AcrossLinks, s.SwitchesRewired, s.BackupRoutes)
	if *routes {
		fmt.Fprintln(w, "backup routes (paper Table II, last two rows, per switch)")
		for _, r := range plan.Routes {
			fmt.Fprintf(w, "  %-12s %-18v via %-12v port %2d (%s across)\n",
				tp.Node(r.Switch).Name, r.Prefix, r.Via, r.Port, r.Direction)
		}
	}
	return nil
}
