package campaign

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/failure"
)

// Fig4Matrix is the Fig 4 emulation sweep (§IV-A) as a campaign matrix:
// fat tree over its applicable conditions, F²Tree over all seven, 8-port,
// OSPF.
func Fig4Matrix(seed int64) Matrix {
	return Matrix{
		Kind:             KindRecovery,
		Schemes:          []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree},
		Ports:            []int{8},
		Conditions:       failure.AllConditions(),
		BaseSeed:         seed,
		SkipInapplicable: true,
	}
}

// RunFig4 executes the Fig 4 sweep on the worker pool — byte-identical
// output at any parallelism; one worker runs the cells in matrix order.
func RunFig4(seed int64, o Options) (*exp.Fig4Results, error) {
	specs := Fig4Matrix(seed).Expand()
	runs, err := RunPayloads[*exp.RecoveryResult](specs, o)
	if err != nil {
		return nil, err
	}
	res := &exp.Fig4Results{ByCondition: map[exp.Scheme]map[failure.Condition]*exp.RecoveryResult{
		exp.SchemeFatTree: {},
		exp.SchemeF2Tree:  {},
	}}
	for i, s := range specs {
		cond, err := failure.ParseCondition(s.Condition)
		if err != nil {
			return nil, err
		}
		res.ByCondition[exp.Scheme(s.Scheme)][cond] = runs[i]
	}
	return res, nil
}

// DetectorsMatrix is the production failure-detection study as a campaign
// matrix: every recovery mechanism (F²Tree, BGP graceful restart, plain
// reconvergence) crossed with both detector models (fixed delay, adaptive
// BFD) on the dual-ToR fabric, over the Table IV conditions plus the
// churn faults and a random failure mix — the recovery-time and
// blackhole-window distributions behind the detector comparison.
func DetectorsMatrix(seed int64) Matrix {
	return Matrix{
		Kind:     KindDetect,
		Schemes:  []exp.Scheme{exp.SchemeF2TreeDual},
		Ports:    []int{6},
		BaseSeed: seed,
	}
}

// Fig6Matrix is the Fig 6 partition-aggregate comparison (§IV-B) as a
// campaign matrix: both schemes at 1 and 5 concurrent failures.
func Fig6Matrix(seed int64, durationMS int, noBackground bool) Matrix {
	return Matrix{
		Kind:         KindPA,
		Schemes:      []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree},
		Ports:        []int{8},
		Channels:     []int{1, 5},
		BaseSeed:     seed,
		DurationMS:   durationMS,
		NoBackground: noBackground,
	}
}

// RunFig6 executes the Fig 6 comparison on the worker pool; the result's
// runs are ordered scheme-major then channel, the matrix's expansion order.
// durationMS 0 is the paper's 600 s window.
func RunFig6(seed int64, durationMS int, noBackground bool, o Options) (*exp.Fig6Results, error) {
	runs, err := RunPayloads[*exp.PAResult](Fig6Matrix(seed, durationMS, noBackground).Expand(), o)
	if err != nil {
		return nil, err
	}
	return &exp.Fig6Results{Runs: runs}, nil
}

// RunPayloads executes specs on the worker pool and returns each run's
// in-memory payload (see ExperimentRunner) in spec order, so the result is
// byte-identical at any parallelism. Any failed run is an error. Options
// must carry no store: a run resumed from one has no payload.
func RunPayloads[T any](specs []Spec, o Options) ([]T, error) {
	if o.Store != nil {
		return nil, fmt.Errorf("campaign: payload runs are in-memory; run without a store")
	}
	out, err := Run(specs, ExperimentRunner(), o)
	if err != nil {
		return nil, err
	}
	for _, r := range out.Results {
		if r.Status != StatusOK {
			return nil, fmt.Errorf("campaign: %s: %s", r.Spec.Key(), r.Error)
		}
	}
	runs := make([]T, len(specs))
	for i, s := range specs {
		p, ok := out.Payloads[s.Hash()].(T)
		if !ok {
			return nil, fmt.Errorf("campaign: missing payload for %s", s.Key())
		}
		runs[i] = p
	}
	return runs, nil
}
