package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sim"
)

// lab is one invocation's experiment settings. It runs the k=4 testbed and
// the Fig 4 matrix at most once each: fig2/table3 and fig4/fig5 are two
// views of one run.
type lab struct {
	seed    int64
	ports   int // table1's switch port count
	fig6MS  int // fig6 workload window (0 = the paper's 600 s)
	noBG    bool
	bisect  sim.Time // bisection run length (0 = 200 ms)
	workers int

	tb *exp.TestbedResults
	f4 *exp.Fig4Results
}

func (l *lab) pool() campaign.Options { return campaign.Options{Parallelism: l.workers} }

func (l *lab) testbed() (*exp.TestbedResults, error) {
	if l.tb == nil {
		tb, err := exp.RunFig2Table3(l.seed)
		if err != nil {
			return nil, err
		}
		l.tb = tb
	}
	return l.tb, nil
}

func (l *lab) fig4() (*exp.Fig4Results, error) {
	if l.f4 == nil {
		f4, err := campaign.RunFig4(l.seed, l.pool())
		if err != nil {
			return nil, err
		}
		l.f4 = f4
	}
	return l.f4, nil
}

func (l *lab) fig6() (*exp.Fig6Results, error) {
	return campaign.RunFig6(l.seed, l.fig6MS, l.noBG, l.pool())
}

func (l *lab) fig7() (*exp.Fig7Results, error) { return exp.RunFig7(l.seed) }

func (l *lab) protocols() (*exp.ProtocolResults, error) { return exp.RunProtocols(l.seed) }

// experiment is one row of the experiment table. run returns the output
// blocks: a single id prints them as they are, report fences each one.
type experiment struct {
	id    string
	title string // report section; consecutive rows may share one
	table bool   // closed-form or testbed: kept by report -tables-only
	// indent makes report print the blocks as an indented code block
	// instead of fencing them.
	indent bool
	run    func(*lab) ([]string, error)
}

// views adapts a run to the table: each view renders one block of its
// result.
func views[T any](get func(*lab) (T, error), render ...func(T) string) func(*lab) ([]string, error) {
	return func(l *lab) ([]string, error) {
		res, err := get(l)
		if err != nil {
			return nil, err
		}
		blocks := make([]string, len(render))
		for i, r := range render {
			blocks[i] = r(res)
		}
		return blocks, nil
	}
}

const (
	testbedTitle = "Fig 2 / Table III — k=4 testbed"
	fig4Title    = "Fig 4 / Fig 5 — 8-port emulation per condition"
)

// experiments drives single ids, all and report, in report order. The
// table rows come first: report -tables-only stops at the first other row.
var experiments = []experiment{
	{id: "table1", title: "Table I — scalability", table: true, run: func(l *lab) ([]string, error) {
		s, err := exp.Table1String(l.ports)
		return []string{s}, err
	}},
	{id: "table4", title: "Table IV — failure conditions", table: true, run: func(*lab) ([]string, error) {
		return []string{exp.Table4String()}, nil
	}},
	{id: "table3", title: testbedTitle, table: true,
		run: views((*lab).testbed, (*exp.TestbedResults).Table3String)},
	{id: "fig2", title: testbedTitle, table: true,
		run: views((*lab).testbed, (*exp.TestbedResults).Fig2String)},
	{id: "fig4", title: fig4Title, run: views((*lab).fig4, (*exp.Fig4Results).String)},
	{id: "fig5", title: fig4Title, run: views((*lab).fig4, (*exp.Fig4Results).Fig5String)},
	{id: "fig6", title: "Fig 6 — partition-aggregate under random failures",
		run: views((*lab).fig6, (*exp.Fig6Results).String)},
	{id: "fig7", title: "Fig 7 — other multi-rooted topologies",
		run: views((*lab).fig7, (*exp.Fig7Results).String)},
	{id: "protocols", title: "Control-plane independence (§V)",
		run: views((*lab).protocols, (*exp.ProtocolResults).String)},
	{id: "sweep", title: "Parameter sweeps", run: func(l *lab) ([]string, error) {
		det, err := exp.RunDetectionSweep(l.seed)
		if err != nil {
			return nil, err
		}
		fib, err := exp.RunFIBSweep(l.seed)
		if err != nil {
			return nil, err
		}
		return []string{det.String(), fib.String()}, nil
	}},
	{id: "bisection", title: "Bisection bandwidth (§II-D)", indent: true, run: func(l *lab) ([]string, error) {
		var rows strings.Builder
		for _, scheme := range []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree} {
			res, err := exp.RunBisection(exp.BisectionOptions{Scheme: scheme, Ports: 8, Seed: l.seed, Duration: l.bisect})
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(&rows, res.Fmt())
		}
		return []string{rows.String()}, nil
	}},
}

func experimentIDs() string {
	ids := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return strings.Join(append(ids, "all"), ", ")
}

// runExperiments prints one experiment, or every one under a header each.
func runExperiments(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 42, "simulation seed")
		ports    = fs.Int("n", 8, "switch port count for table1")
		duration = fs.Duration("duration", 600*time.Second, "fig6 workload window")
		noBG     = fs.Bool("no-background", false, "fig6: skip background traffic")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "worker count for the multi-run experiments (fig4, fig5, fig6)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: f2tree-lab [flags] <experiment>\n"+
			"       f2tree-lab %s [flags]\n"+
			"experiments: %s\nflags:\n", verbNames(), experimentIDs())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one experiment: %s", experimentIDs())
	}
	l := &lab{seed: *seed, ports: *ports, fig6MS: int(*duration / time.Millisecond), noBG: *noBG, workers: *workers}
	show := func(e experiment) error {
		blocks, err := e.run(l)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprint(stdout, strings.Join(blocks, ""))
		return nil
	}
	name := fs.Arg(0)
	if name == "all" {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "==== %s ====\n", e.id)
			if err := show(e); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}
	for _, e := range experiments {
		if e.id == name {
			return show(e)
		}
	}
	return fmt.Errorf("unknown experiment %q", name)
}

// runReport regenerates the complete evaluation — every row of the
// experiment table — as one markdown document (RESULTS.md is one run).
func runReport(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-lab report", flag.ContinueOnError)
	fs.SetOutput(stderr)
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
	if fs.NArg() != 0 {
		return fmt.Errorf("report: unexpected arguments %v", fs.Args())
	}
	l := &lab{seed: *seed, ports: 8, workers: *workers}
	if *quick {
		l.fig6MS, l.noBG, l.bisect = 120_000, true, 50*sim.Millisecond
	}
	if *out == "" {
		return writeReport(stdout, l, *tables, *quick)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := writeReport(f, l, *tables, *quick); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport renders the report: a section per title, each block fenced
// (or indented), and a footer unless only the tables were asked for.
func writeReport(out io.Writer, l *lab, tablesOnly, quick bool) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "# F²Tree evaluation report (seed %d)\n", l.seed)
	title := ""
	for _, e := range experiments {
		if tablesOnly && !e.table {
			return w.Flush()
		}
		if e.title != title {
			title = e.title
			fmt.Fprintf(w, "\n## %s\n\n", title)
		}
		blocks, err := e.run(l)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		for _, b := range blocks {
			if e.indent {
				for _, line := range strings.SplitAfter(b, "\n") {
					if line != "" {
						fmt.Fprintf(w, "    %s", line)
					}
				}
			} else {
				fmt.Fprintf(w, "```\n%s```\n", b)
			}
		}
	}
	fmt.Fprintf(w, "\n_Generated by f2tree-lab report (quick=%v); fully deterministic given the seed._\n", quick)
	return w.Flush()
}
