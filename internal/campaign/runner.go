package campaign

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/sim"
)

// ExperimentRunner returns the RunFunc that executes real experiment specs
// through internal/exp: KindRecovery via exp.RunRecovery, KindPA via
// exp.RunPartitionAggregate. The payload is the full experiment result
// (*exp.RecoveryResult / *exp.PAResult) for in-process assemblers; the
// metrics are the flat scalars the JSONL store persists.
func ExperimentRunner() RunFunc {
	return func(s Spec) (Metrics, any, error) {
		switch s.Kind {
		case KindRecovery:
			return runRecoverySpec(s)
		case KindPA:
			return runPASpec(s)
		case KindChaos:
			return runChaosSpec(s)
		case KindDetect:
			return runDetectSpec(s)
		default:
			return nil, nil, fmt.Errorf("campaign: unknown kind %q", s.Kind)
		}
	}
}

// recoveryOptions translates a recovery spec into exp options, with the
// seed derived from the spec.
func recoveryOptions(s Spec) (exp.RecoveryOptions, error) {
	cond, err := failure.ParseCondition(s.Condition)
	if err != nil {
		return exp.RecoveryOptions{}, err
	}
	o := exp.RecoveryOptions{
		Scheme: exp.Scheme(s.Scheme), Ports: s.Ports, Condition: cond,
		Control: s.Control, Seed: s.Seed(),
	}
	if s.HorizonMS > 0 {
		o.Horizon = sim.Time(s.HorizonMS) * sim.Millisecond
		// Keep the injection inside short debug horizons.
		if o.Horizon < 2*380*sim.Millisecond {
			o.FailAt = o.Horizon / 2
		}
	}
	return o, nil
}

func runRecoverySpec(s Spec) (Metrics, any, error) {
	o, err := recoveryOptions(s)
	if err != nil {
		return nil, nil, err
	}
	res, err := exp.RunRecovery(o)
	if err != nil {
		return nil, nil, err
	}
	horizon := 2 * sim.Second
	if s.HorizonMS > 0 {
		horizon = sim.Time(s.HorizonMS) * sim.Millisecond
	}
	delivered := float64(res.PacketsSent - res.PacketsLost)
	m := Metrics{
		"connectivity_loss_ms": float64(res.ConnectivityLoss) / float64(time.Millisecond),
		"packets_sent":         float64(res.PacketsSent),
		"packets_lost":         float64(res.PacketsLost),
		"collapse_ms":          float64(res.CollapseDuration) / float64(time.Millisecond),
		"tcp_timeouts":         float64(res.TCPTimeouts),
		// Goodput of the paced UDP flow (1448 B segments, Fig 2's shape).
		"goodput_mbps": delivered * 1448 * 8 / horizon.Seconds() / 1e6,
	}
	return m, res, nil
}

// runChaosSpec generates the cell's fuzzed scenario from the spec-derived
// seed and runs it under the invariant oracles. The payload is the
// scenario together with its verdict, so a violating cell can be shrunk
// and written out as a replayable artifact by the caller.
func runChaosSpec(s Spec) (Metrics, any, error) {
	sc, err := chaos.Generate(chaos.FuzzConfig{
		Scheme: s.Scheme, Ports: s.Ports, Control: s.control(),
	}, s.Seed())
	if err != nil {
		return nil, nil, err
	}
	v, err := chaos.RunScenario(sc)
	if err != nil {
		return nil, nil, err
	}
	m := Metrics{
		"violations":      float64(len(v.Violations)),
		"transient_loops": float64(v.TransientLoops),
		"sent":            float64(v.Sent),
		"delivered":       float64(v.Delivered),
		"drops":           float64(v.Drops),
		"injected":        float64(v.Injected),
		"faults":          float64(len(sc.Faults)),
		"horizon_ms":      float64(v.HorizonMs),
	}
	return m, &ChaosOutcome{Scenario: sc, Verdict: v}, nil
}

// runDetectSpec runs one detector-comparison cell. The payload is the
// full *chaos.DetectorResult (cell coordinates, per-flow gaps, trace
// hash); the metrics are the distribution inputs the store aggregates.
func runDetectSpec(s Spec) (Metrics, any, error) {
	res, err := chaos.RunDetectorCell(chaos.DetectorCell{
		Scheme: s.Scheme, Ports: s.Ports,
		Mechanism: s.Mechanism, Detector: s.Detector, Condition: s.Condition,
		BaseSeed: s.BaseSeed, Rep: s.Rep,
	})
	if err != nil {
		return nil, nil, err
	}
	m := Metrics{
		"recovery_ms": float64(res.RecoveryMs),
		"false_downs": float64(res.FalseDowns),
		"violations":  float64(res.Violations),
		"flows":       float64(len(res.GapsMs)),
	}
	return m, res, nil
}

// ChaosOutcome is the in-process payload of a chaos cell.
type ChaosOutcome struct {
	Scenario *chaos.Scenario
	Verdict  *chaos.Verdict
}

func runPASpec(s Spec) (Metrics, any, error) {
	o := exp.PAOptions{
		Scheme: exp.Scheme(s.Scheme), Ports: s.Ports, Channels: s.Channels,
		Seed: s.Seed(), DisableBackground: s.NoBackground,
	}
	if s.DurationMS > 0 {
		o.Duration = sim.Time(s.DurationMS) * sim.Millisecond
	}
	res, err := exp.RunPartitionAggregate(o)
	if err != nil {
		return nil, nil, err
	}
	m := Metrics{
		"requests":        float64(res.Requests),
		"completed":       float64(res.Completed),
		"miss_ratio":      res.MissRatio,
		"failures":        float64(res.Failures),
		"max_spf_wait_ms": float64(res.MaxSPFWait) / float64(time.Millisecond),
	}
	if res.CompletionS.Len() > 0 {
		if p50, err := res.CompletionS.Quantile(0.50); err == nil {
			m["completion_p50_s"] = p50
		}
		if p99, err := res.CompletionS.Quantile(0.99); err == nil {
			m["completion_p99_s"] = p99
		}
	}
	return m, res, nil
}
