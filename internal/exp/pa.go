package exp

import (
	"fmt"
	"time"

	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/workload"
)

// PAOptions parameterizes the partition-aggregate experiment (§IV-B,
// Fig 6).
type PAOptions struct {
	Scheme Scheme
	Ports  int
	// Channels is the concurrent-failure level (the paper's 1 and 5).
	Channels int
	// Duration is the workload window (paper: 600 s).
	Duration sim.Time
	// Grace lets in-flight requests finish after the window.
	Grace sim.Time
	// Deadline is the completion deadline (paper: 250 ms, [23]).
	Deadline time.Duration
	Seed     int64
	// Workload overrides; zero values take the paper defaults.
	PA workload.PartitionAggregateConfig
	BG workload.BackgroundConfig
	// DisableBackground skips background traffic (faster tests).
	DisableBackground bool
	Net               network.Config
	OSPF              ospf.Config
}

func (o PAOptions) withDefaults() (PAOptions, error) {
	if o.Duration == 0 {
		o.Duration = 600 * sim.Second
	}
	if o.Grace == 0 {
		o.Grace = 10 * sim.Second
	}
	if o.Deadline == 0 {
		o.Deadline = 250 * time.Millisecond
	}
	if o.Channels == 0 {
		o.Channels = 1
	}
	if o.PA.Workers == 0 {
		o.PA = workload.DefaultPartitionAggregateConfig()
	}
	if o.BG.Flows == 0 && !o.DisableBackground {
		bg, err := workload.DefaultBackgroundConfig()
		if err != nil {
			return o, err
		}
		o.BG = bg
	}
	return o, nil
}

// PAResult is one bar of Fig 6(a) plus the CDF of Fig 6(b).
type PAResult struct {
	Scheme   Scheme
	Channels int
	Deadline time.Duration

	Requests    int
	Completed   int
	MissRatio   float64
	Failures    int          // injected link failures
	CompletionS *metrics.CDF // completion times in seconds (completed only)
	// FractionOver100ms supports Fig 6(b)'s x-axis cut.
	FractionOver100ms float64
	// MaxSPFWait is the largest observed OSPF trigger→run wait,
	// reproducing the paper's "calculation timer grows to ~9 s" analysis.
	MaxSPFWait time.Duration
}

// RunPartitionAggregate executes the Fig 6 experiment for one scheme and
// failure level.
func RunPartitionAggregate(opts PAOptions) (*PAResult, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	lab, err := NewLab(LabSpec{Scheme: o.Scheme, Ports: o.Ports, Seed: o.Seed, Net: o.Net, OSPF: o.OSPF})
	if err != nil {
		return nil, err
	}
	tp := lab.Topo
	stacks := make([]*transport.Stack, 0, tp.HostCount())
	for _, h := range tp.NodesOfKind(topo.Host) {
		st, err := transport.NewStack(lab.Net, h)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, st)
	}
	pa, err := workload.NewPartitionAggregate(lab.Net, stacks, o.PA)
	if err != nil {
		return nil, err
	}
	var bg *workload.Background
	if !o.DisableBackground {
		bg, err = workload.NewBackground(lab.Net, stacks, o.BG)
		if err != nil {
			return nil, err
		}
	}
	fcfg, err := failure.DefaultRandomConfig(o.Channels)
	if err != nil {
		return nil, err
	}
	proc, err := failure.NewProcess(lab.Net, fcfg)
	if err != nil {
		return nil, err
	}

	pa.Start()
	if bg != nil {
		bg.Start()
	}
	proc.Start()
	lab.Sim.At(o.Duration, func(sim.Time) {
		pa.Stop()
		if bg != nil {
			bg.Stop()
		}
		proc.Stop()
	})
	if err := lab.Sim.Run(o.Duration + o.Grace); err != nil {
		return nil, err
	}

	results := pa.Results()
	miss, n := workload.MissRatio(results, o.Deadline)
	times := workload.CompletionTimes(results)
	cdf := metrics.NewCDF(times)
	completed := len(times)

	var maxWait time.Duration
	for _, id := range tp.LiveNodes() {
		if tp.Node(id).Kind == topo.Host {
			continue
		}
		if lab.Domain == nil {
			break
		}
		if inst := lab.Domain.Instance(id); inst != nil {
			if w := inst.MaxSPFWait(); w > maxWait {
				maxWait = w
			}
		}
	}
	return &PAResult{
		Scheme: o.Scheme, Channels: o.Channels, Deadline: o.Deadline,
		Requests: n, Completed: completed, MissRatio: miss,
		Failures: proc.Count(), CompletionS: cdf,
		FractionOver100ms: cdf.FractionAbove(0.1) * float64(completed) / float64(maxInt(n, 1)),
		MaxSPFWait:        maxWait,
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fmt renders the result as a Fig 6(a) row.
func (r *PAResult) Fmt() string {
	return fmt.Sprintf("%-14s CF=%d  requests=%d completed=%d  miss(%v)=%.3f%%  failures=%d  maxSPFwait=%v",
		r.Scheme, r.Channels, r.Requests, r.Completed, r.Deadline, r.MissRatio*100, r.Failures, r.MaxSPFWait)
}
