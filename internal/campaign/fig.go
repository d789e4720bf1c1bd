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
	if o.Store != nil {
		return nil, fmt.Errorf("campaign: RunFig4 needs in-memory payloads; run without a store")
	}
	out, err := Run(Fig4Matrix(seed).Expand(), ExperimentRunner(), o)
	if err != nil {
		return nil, err
	}
	res := &exp.Fig4Results{ByCondition: map[exp.Scheme]map[failure.Condition]*exp.RecoveryResult{
		exp.SchemeFatTree: {},
		exp.SchemeF2Tree:  {},
	}}
	for _, r := range out.Results {
		if r.Status != StatusOK {
			return nil, fmt.Errorf("campaign: %s %s: %s", r.Spec.Scheme, r.Spec.Condition, r.Error)
		}
		rec, ok := out.Payloads[r.Hash].(*exp.RecoveryResult)
		if !ok {
			return nil, fmt.Errorf("campaign: missing payload for %s", r.Spec.Key())
		}
		cond, err := failure.ParseCondition(r.Spec.Condition)
		if err != nil {
			return nil, err
		}
		res.ByCondition[exp.Scheme(r.Spec.Scheme)][cond] = rec
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
	if o.Store != nil {
		return nil, fmt.Errorf("campaign: RunFig6 needs in-memory payloads; run without a store")
	}
	specs := Fig6Matrix(seed, durationMS, noBackground).Expand()
	out, err := Run(specs, ExperimentRunner(), o)
	if err != nil {
		return nil, err
	}
	byHash := make(map[string]*exp.PAResult, len(specs))
	for _, r := range out.Results {
		if r.Status != StatusOK {
			return nil, fmt.Errorf("campaign: %s CF=%d: %s", r.Spec.Scheme, r.Spec.Channels, r.Error)
		}
		pa, ok := out.Payloads[r.Hash].(*exp.PAResult)
		if !ok {
			return nil, fmt.Errorf("campaign: missing payload for %s", r.Spec.Key())
		}
		byHash[r.Hash] = pa
	}
	res := &exp.Fig6Results{}
	for _, s := range specs {
		res.Runs = append(res.Runs, byHash[s.Hash()])
	}
	return res, nil
}
