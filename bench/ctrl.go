package main

import (
	"fmt"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/topo"
)

// ctrlScenarios draws one pass of control-plane scenarios on an F²Tree: a
// fixed recipe of fault schedules whose targets — links, switches, the pod —
// and run seeds come from rng. chaos.Generate draws the recipe itself from
// the seed, and at N=16 its scenarios cost anything from 0.4 s to 23 s of
// host time; fixing the recipe gives every seed the same amount of work while
// the fabric elements that fail still differ from seed to seed.
func ctrlScenarios(rng *rand.Rand, ports int, control string) ([]*chaos.Scenario, error) {
	tp, err := exp.BuildTopology(exp.SchemeF2Tree, ports)
	if err != nil {
		return nil, err
	}
	links := fabricLinks(tp)
	nodes := switches(tp)
	pods := 0
	for _, id := range nodes {
		if p := tp.Node(id).Pod; p != topo.None && p >= pods {
			pods = p + 1
		}
	}
	if len(links) < 4 || len(nodes) < 1 || pods == 0 {
		return nil, fmt.Errorf("bench: f2tree/%d is too small for the control-plane recipe", ports)
	}
	linkOrder, nodeOrder := rng.Perm(len(links)), rng.Perm(len(nodes))
	link := func(i int) (a, b string) {
		l := links[linkOrder[i]]
		return tp.Node(l.A).Name, tp.Node(l.B).Name
	}
	node := func(i int) string { return tp.Node(nodes[nodeOrder[i]]).Name }
	mk := func(faults ...chaos.Fault) *chaos.Scenario {
		return &chaos.Scenario{
			Scheme: string(exp.SchemeF2Tree), Ports: ports, Control: control,
			Seed: 1 + rng.Int63n(1<<40), Faults: faults,
		}
	}
	// A pod burst's host time depends on which half of the fabric it hits
	// (README.md, findings: at N=16, 1.8 s in pods 0–7 against 1.4 s in pods
	// 8–13), so the pod is drawn from the upper half only: every seed then
	// gets a burst of the same cost class.
	pod := pods/2 + rng.Intn(pods-pods/2)
	a0, b0 := link(0)
	a1, b1 := link(1)
	a2, b2 := link(2)
	a3, b3 := link(3)
	return []*chaos.Scenario{
		// Single-link events, one after another: the incremental SPF and
		// delta-install path.
		mk(
			chaos.Fault{Kind: chaos.FaultLinkDown, AtMs: 300, A: a0, B: b0},
			chaos.Fault{Kind: chaos.FaultLinkDown, AtMs: 1300, EndMs: 2300, A: a1, B: b1},
			chaos.Fault{Kind: chaos.FaultFlap, AtMs: 3300, EndMs: 3900, PeriodMs: 100, A: a2, B: b2},
			chaos.Fault{Kind: chaos.FaultUnidirDown, AtMs: 4900, EndMs: 5400, A: a3, B: b3},
		),
		// A switch crash and restart: FIB wipe, re-origination, adjacency
		// loss on every port at once.
		mk(chaos.Fault{Kind: chaos.FaultCrash, AtMs: 300, EndMs: 1000, Node: node(0)}),
		// A correlated pod-wide burst: mass flooding and full recomputation.
		mk(chaos.Fault{Kind: chaos.FaultPodBurst, AtMs: 300, EndMs: 800, Pod: pod}),
	}, nil
}

// ctrlWorkload runs the recipe under one control plane at one fabric size.
func ctrlWorkload(ports int, control string, cp core.ControlPlane) *simWorkload {
	ls := labSpec{scheme: exp.SchemeF2Tree, ports: ports, control: cp}
	return &simWorkload{
		shapes: []labShape{{ls, 3}},
		pass: func(sc scope, passSeed int64, c layerCounts) ([]opResult, error) {
			var scs []*chaos.Scenario
			err := sc.span("chaos.generate", func(scope) (err error) {
				scs, err = ctrlScenarios(rand.New(rand.NewSource(passSeed)), ports, control)
				return err
			})
			if err != nil {
				return nil, err
			}
			ops := make([]opResult, 0, len(scs))
			for i, s := range scs {
				begin := now()
				var v *chaos.Verdict
				var opts chaos.RunOpts
				if c != nil {
					opts.OnFinish = c.observeLab
				}
				err := sc.span("chaos.run", func(scope) (err error) {
					v, err = chaos.RunScenarioOpts(s, opts)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("scenario %d: %w", i, err)
				}
				op := opResult{ms: millis(since(begin)), digest: v.TraceHash}
				if v.Violated() {
					op.fault = fmt.Sprintf("scenario %d (%s…): %s oracle: %s", i, s.Faults[0].Kind, v.Violations[0].Oracle, v.Violations[0].Detail)
				}
				c.add("chaos.violations", float64(len(v.Violations)))
				ops = append(ops, op)
			}
			return ops, nil
		},
		kernels: func(k *kernelEnv) {
			k.labKernel(ls)
			k.fibKernel(ls)
			k.detectKernel(ls)
			if cp == core.ControlBGP {
				k.bgpKernel(ls)
				k.controllerKernel(ls)
			} else {
				k.ospfKernel(ls)
			}
		},
	}
}
