package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The Fig 6 run shape: five concurrent failure channels, background traffic
// on, N=8. The window is half the paper's 600 s so that a run fits several
// passes; the request and background rates are the paper's.
const (
	paPorts    = 8
	paChannels = 5
	paWindow   = 300 * sim.Second
	paGrace    = 10 * sim.Second
	paDeadline = 250 * time.Millisecond
	// paFailuresPerChannel keeps the paper's density of about 20 failures
	// per channel per 600 s.
	paFailuresPerChannel = 10
	// paSlice is the traced pass's sampling interval for the event heap.
	paSlice = 30 * sim.Second
)

// linkFault is one scheduled link failure.
type linkFault struct {
	link   topo.LinkID
	at     sim.Time
	lastMs int64
}

// failureSchedule draws the churn of one run: per channel, a fixed number of
// failures whose gaps and durations are the midpoint quantiles of §IV-B's
// log-normal distributions (failure.DefaultRandomConfig) in seeded order, on
// seeded distinct links, with the gaps scaled so the channel fills the
// window. failure.Process samples the same distributions freely, and their
// heavy tails make the number of failures — and so the run's cost — swing by
// a factor of two from seed to seed; stratifying keeps the clustering and the
// identity of the inputs seeded while every seed gets the same amount of work.
func failureSchedule(rng *rand.Rand, links []*topo.Link, channels, perChannel int, window sim.Time) ([]linkFault, error) {
	cfg, err := failure.DefaultRandomConfig(channels)
	if err != nil {
		return nil, err
	}
	if len(links) < channels*perChannel {
		return nil, fmt.Errorf("bench: %d links cannot carry %d distinct failures", len(links), channels*perChannel)
	}
	order := rng.Perm(len(links))
	var out []linkFault
	for ch := 0; ch < channels; ch++ {
		gaps := make([]float64, perChannel)
		lasts := make([]float64, perChannel)
		var gapSum, lastSum float64
		for i, q := range rng.Perm(perChannel) {
			gaps[i] = cfg.InterFailure.Quantile((float64(q) + 0.5) / float64(perChannel))
			gapSum += gaps[i]
		}
		for i, q := range rng.Perm(perChannel) {
			lasts[i] = cfg.Duration.Quantile((float64(q) + 0.5) / float64(perChannel))
			lastSum += lasts[i]
		}
		scale := (window.Seconds() - lastSum) / gapSum
		at := 0.0
		for i := 0; i < perChannel; i++ {
			at += gaps[i] * scale
			out = append(out, linkFault{
				link:   links[order[ch*perChannel+i]].ID,
				at:     sim.Time(at * float64(sim.Second)),
				lastMs: int64(lasts[i] * 1000),
			})
			at += lasts[i]
		}
	}
	return out, nil
}

// paOutcome is every simulated figure one partition-aggregate run produces.
type paOutcome struct {
	requests, completed int
	miss                float64
	events              uint64
	delivered           uint64
}

func (o paOutcome) digest() string {
	return fmt.Sprintf("req=%d done=%d miss=%.6f events=%d delivered=%d", o.requests, o.completed, o.miss, o.events, o.delivered)
}

// runPA is exp.RunPartitionAggregate's assembly — lab, one stack per host,
// request and background workloads — under a stratified failure schedule in
// place of failure.Process. Traced, the run is cut into paSlice slices.
func runPA(sc scope, scheme exp.Scheme, passSeed int64, c layerCounts) (paOutcome, error) {
	var out paOutcome
	seed := exp.PASeed(passSeed, scheme, paPorts, paChannels, 0)
	lab, err := buildLab(sc, labSpec{scheme: scheme, ports: paPorts, seed: seed})
	if err != nil {
		return out, err
	}
	hosts := lab.Topo.NodesOfKind(topo.Host)
	stacks := make([]*transport.Stack, 0, len(hosts))
	err = sc.span("transport.stacks", func(scope) error {
		for _, h := range hosts {
			st, err := transport.NewStack(lab.Net, h)
			if err != nil {
				return err
			}
			stacks = append(stacks, st)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	pa, err := workload.NewPartitionAggregate(lab.Net, stacks, workload.DefaultPartitionAggregateConfig())
	if err != nil {
		return out, err
	}
	bgCfg, err := workload.DefaultBackgroundConfig()
	if err != nil {
		return out, err
	}
	bg, err := workload.NewBackground(lab.Net, stacks, bgCfg)
	if err != nil {
		return out, err
	}
	faults, err := failureSchedule(rand.New(rand.NewSource(seed)), fabricLinks(lab.Topo), paChannels, paFailuresPerChannel, paWindow)
	if err != nil {
		return out, err
	}
	for _, f := range faults {
		f := f
		lab.Sim.At(f.at, func(sim.Time) { lab.Net.FailLink(f.link) })
		lab.Sim.At(f.at.Add(time.Duration(f.lastMs)*time.Millisecond), func(sim.Time) { lab.Net.RestoreLink(f.link) })
	}
	pa.Start()
	bg.Start()
	lab.Sim.At(paWindow, func(sim.Time) {
		pa.Stop()
		bg.Stop()
	})

	horizon := paWindow + paGrace
	bounds, names := []sim.Time{horizon}, []string{"sim.run"}
	if sc.tr != nil {
		bounds, names = nil, nil
		for t := paSlice; t < horizon; t += paSlice {
			bounds, names = append(bounds, t), append(names, "sim.run")
		}
		bounds, names = append(bounds, horizon), append(names, "sim.run")
	}
	if err := runSliced(sc, lab.Sim, c, names, bounds); err != nil {
		return out, err
	}

	results := pa.Results()
	out.miss, out.requests = workload.MissRatio(results, paDeadline)
	out.completed = len(workload.CompletionTimes(results))
	out.events = lab.Sim.EventsRun()
	out.delivered = lab.Net.Stats().Delivered
	c.observeLab(lab)
	c.add("workload.requests", float64(out.requests))
	c.add("workload.completed", float64(out.completed))
	c.add("workload.bg_flows", float64(bg.Started()))
	c.add("failure.injected", float64(len(faults)))
	return out, nil
}

func paWorkload() *simWorkload {
	schemes := []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree}
	return &simWorkload{
		shapes: []labShape{
			{labSpec{scheme: exp.SchemeFatTree, ports: paPorts}, 1},
			{labSpec{scheme: exp.SchemeF2Tree, ports: paPorts}, 1},
		},
		pass: func(sc scope, passSeed int64, c layerCounts) ([]opResult, error) {
			var ops []opResult
			outs := make(map[exp.Scheme]paOutcome)
			for _, s := range schemes {
				begin := now()
				var out paOutcome
				err := sc.span("op.pa", func(sc scope) (err error) {
					out, err = runPA(sc, s, passSeed, c)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s, err)
				}
				outs[s] = out
				ops = append(ops, opResult{ms: millis(since(begin)), digest: out.digest()})
			}
			// §IV-B: fast reroute must not miss more deadlines than plain
			// reconvergence, and must complete every request.
			fat, f2 := outs[exp.SchemeFatTree], outs[exp.SchemeF2Tree]
			switch {
			case f2.miss > fat.miss:
				ops[1].fault = fmt.Sprintf("F²Tree misses %.4f of deadlines, fat tree %.4f", f2.miss, fat.miss)
			case f2.completed != f2.requests:
				ops[1].fault = fmt.Sprintf("F²Tree completed %d of %d requests", f2.completed, f2.requests)
			}
			return ops, nil
		},
		kernels: func(k *kernelEnv) {
			ls := labSpec{scheme: exp.SchemeF2Tree, ports: paPorts}
			k.simKernel()
			k.networkKernel(ls)
			k.fibKernel(ls)
			k.transportKernel(ls)
			k.ospfKernel(ls)
		},
	}
}
