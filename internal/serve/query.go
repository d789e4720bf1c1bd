// Package serve is the online what-if layer: a long-lived concurrent
// service that answers "link (a,b) fails at t=X under workload W, scheme
// S — what breaks, for how long?" by running the simulator on demand. It
// multiplexes queries over a campaign.WorkerPool (panic isolation,
// per-query wall-clock timeouts) and memoizes answers in a
// campaign.RecordStore keyed by the content hash of the canonical query,
// so repeated and concurrently-overlapping queries cost one simulation.
// cmd/f2tree-serve exposes it over HTTP/JSON.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/ospf"
	"repro/internal/sim"
)

// Query kinds.
const (
	// KindWhatIf runs a chaos scenario around one link failure and
	// reports the blackhole window and affected flows.
	KindWhatIf = "whatif"
	// KindRecovery runs the paper's single-flow recovery experiment for a
	// Table IV condition and reports the recovery metrics.
	KindRecovery = "recovery"
)

// Link names the failing link of a what-if query by its endpoints.
type Link struct {
	A string `json:"a"`
	B string `json:"b"`
}

// Query is one what-if question, the unit the service memoizes. The
// canonical (default-filled) form's JSON encoding is the cache key, so two
// queries asking the same question — spelled with or without defaults —
// hit the same cache entry.
type Query struct {
	// Kind selects the experiment: whatif (default) or recovery.
	Kind   string `json:"kind,omitempty"`
	Scheme string `json:"scheme"`
	Ports  int    `json:"ports"`
	// Control is the whatif control plane: ospf (default), bgp or
	// centralized.
	Control string `json:"control,omitempty"`
	// Link is the failing link of a whatif query.
	Link *Link `json:"link,omitempty"`
	// FailAtMs is when the failure hits (default 300 ms).
	FailAtMs int64 `json:"failAtMs,omitempty"`
	// RestoreAtMs, if > 0, restores the link (whatif only).
	RestoreAtMs int64 `json:"restoreAtMs,omitempty"`
	// HorizonMs / BudgetMs override the run length and the oracle's
	// detection+reroute budget (whatif; 0 = derived defaults).
	HorizonMs int64 `json:"horizonMs,omitempty"`
	BudgetMs  int64 `json:"budgetMs,omitempty"`
	// Flows is the whatif workload W (default: the chaos corner-to-corner
	// pair).
	Flows []exp.Flow `json:"flows,omitempty"`
	// Condition is the recovery query's Table IV condition, "C1".."C7".
	Condition string `json:"condition,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// FullSPF ablates the incremental control plane (pre-incremental
	// baseline), so a client can ask the same question under both and
	// compare — the two must agree on everything but control-plane cost.
	FullSPF bool `json:"fullSPF,omitempty"`
}

// normalized fills defaults and checks the fields, returning the canonical
// form whose encoding is the cache key. Where a field has two spellings of
// one value the canonical one is the shorter document: control "ospf"
// becomes "", condition "c1" becomes "C1". The checks that need the fabric
// are validate's.
func (q Query) normalized() (Query, error) {
	switch q.Kind {
	case "":
		q.Kind = KindWhatIf
	case KindWhatIf, KindRecovery:
	default:
		return q, fmt.Errorf("serve: unknown kind %q (want %s or %s)", q.Kind, KindWhatIf, KindRecovery)
	}
	if q.Scheme == "" {
		return q, fmt.Errorf("serve: scheme is required")
	}
	if q.Ports <= 0 {
		return q, fmt.Errorf("serve: ports must be positive, got %d", q.Ports)
	}
	if q.FailAtMs == 0 {
		q.FailAtMs = 300
	}
	if q.FailAtMs < 0 {
		return q, fmt.Errorf("serve: negative failAtMs %d", q.FailAtMs)
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	switch q.Kind {
	case KindWhatIf:
		if q.Condition != "" {
			return q, fmt.Errorf("serve: condition is a recovery-query field")
		}
		if q.Link == nil || q.Link.A == "" || q.Link.B == "" {
			return q, fmt.Errorf("serve: whatif needs link endpoints a and b")
		}
		if q.Control == exp.ControlOSPF {
			// Also keeps the run's traceHash equal: chaos seeds it with
			// the scenario JSON, where an empty control is omitted.
			q.Control = ""
		}
		if q.RestoreAtMs != 0 && q.RestoreAtMs <= q.FailAtMs {
			return q, fmt.Errorf("serve: restoreAtMs %d not after failAtMs %d", q.RestoreAtMs, q.FailAtMs)
		}
	case KindRecovery:
		if q.Link != nil || q.Control != "" || q.RestoreAtMs != 0 || q.BudgetMs != 0 || len(q.Flows) != 0 {
			return q, fmt.Errorf("serve: link, control, restoreAtMs, budgetMs and flows are whatif-query fields")
		}
		cond, err := failure.ParseCondition(q.Condition)
		if err != nil {
			return q, fmt.Errorf("serve: %w", err)
		}
		q.Condition = cond.String()
	}
	return q, nil
}

// validate runs the checks of a normalized query that need its fabric:
// the topology must build and, for whatif, the assembled scenario must
// pass chaos's validation (scheme, control, flows, horizon), so serve and
// batch replay reject exactly the same inputs. It depends on nothing but
// the canonical query, so one validation serves every query with its key.
func (q Query) validate() error {
	if _, err := exp.BuildTopology(exp.Scheme(q.Scheme), q.Ports); err != nil {
		return err
	}
	if q.Kind == KindWhatIf {
		return q.scenario().Validate()
	}
	return nil
}

// hash is the memoization key: sha256 of the canonical JSON, truncated to
// 16 hex digits (the same content-hash convention as campaign specs).
func (q Query) hash() string {
	b, err := json.Marshal(q)
	if err != nil {
		panic(fmt.Sprintf("serve: marshaling query: %v", err)) // struct of plain data; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// scenario assembles the whatif query's chaos scenario.
func (q Query) scenario() *chaos.Scenario {
	return &chaos.Scenario{
		Scheme:    q.Scheme,
		Ports:     q.Ports,
		Control:   q.Control,
		Seed:      q.Seed,
		HorizonMs: q.HorizonMs,
		BudgetMs:  q.BudgetMs,
		Flows:     q.Flows,
		Faults: []chaos.Fault{{
			Kind:  chaos.FaultLinkDown,
			AtMs:  q.FailAtMs,
			EndMs: q.RestoreAtMs,
			A:     q.Link.A,
			B:     q.Link.B,
		}},
	}
}

// FlowReport is one workload flow's outcome in a whatif report.
type FlowReport struct {
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	// MaxGapMs is the flow's longest delivery gap — the blackhole window —
	// and MaxGapStartMs its onset.
	MaxGapMs      int64 `json:"maxGapMs"`
	MaxGapStartMs int64 `json:"maxGapStartMs"`
	// Affected marks flows the failure visibly hurt: dropped packets or a
	// delivery gap of at least affectedGapMs.
	Affected bool `json:"affected"`
}

// affectedGapMs is the delivery-gap floor for calling a flow affected:
// well below any control-plane recovery time, well above the healthy
// inter-packet cadence (default 1 ms).
const affectedGapMs = 5

// Report is one query's answer — the record the memoization store keeps.
type Report struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	// Schema is the record-layout + build-fingerprint version stamped at
	// Append time; a warm start serves only records whose Schema matches
	// the running server's (see fingerprint.go). Records persisted before
	// this field existed decode with an empty Schema and re-compute.
	Schema string `json:"schema,omitempty"`

	// Whatif fields.
	// BlackholeMs is the worst delivery gap across the workload's flows.
	BlackholeMs   int64        `json:"blackholeMs,omitempty"`
	AffectedFlows int          `json:"affectedFlows,omitempty"`
	Flows         []FlowReport `json:"flowReports,omitempty"`
	// Violations lists oracle violations (kind: detail), empty when the
	// run stayed within budget.
	Violations []string `json:"violations,omitempty"`
	// TraceHash is the run's determinism digest: equal queries must
	// produce equal hashes, which the memoization layer exploits.
	TraceHash string `json:"traceHash,omitempty"`

	// Recovery fields (the paper's §III metrics).
	RecoveryMs  float64 `json:"recoveryMs,omitempty"`
	CollapseMs  float64 `json:"collapseMs,omitempty"`
	PacketsSent uint64  `json:"packetsSent,omitempty"`
	PacketsLost uint64  `json:"packetsLost,omitempty"`
	TCPTimeouts int     `json:"tcpTimeouts,omitempty"`
}

// runQuery executes a normalized query — the service's default Runner.
func runQuery(q Query) (*Report, error) {
	switch q.Kind {
	case KindWhatIf:
		return runWhatIf(q)
	case KindRecovery:
		return runRecovery(q)
	default:
		return nil, fmt.Errorf("serve: unknown kind %q", q.Kind)
	}
}

func runWhatIf(q Query) (*Report, error) {
	v, err := chaos.RunScenarioOpts(q.scenario(), chaos.RunOpts{
		OSPF: ospf.Config{FullSPF: q.FullSPF},
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Kind: KindWhatIf, TraceHash: v.TraceHash}
	for _, f := range v.Flows {
		fr := FlowReport{
			Src: f.Src, Dst: f.Dst,
			Sent: f.Sent, Delivered: f.Delivered, Dropped: f.Dropped,
			MaxGapMs: f.MaxGapMs, MaxGapStartMs: f.MaxGapStartMs,
			Affected: f.Dropped > 0 || f.MaxGapMs >= affectedGapMs,
		}
		if fr.Affected {
			rep.AffectedFlows++
		}
		if fr.MaxGapMs > rep.BlackholeMs {
			rep.BlackholeMs = fr.MaxGapMs
		}
		rep.Flows = append(rep.Flows, fr)
	}
	for _, viol := range v.Violations {
		rep.Violations = append(rep.Violations, viol.Oracle+": "+viol.Detail)
	}
	return rep, nil
}

func runRecovery(q Query) (*Report, error) {
	cond, err := failure.ParseCondition(q.Condition)
	if err != nil {
		return nil, err
	}
	opts := exp.RecoveryOptions{
		Scheme:    exp.Scheme(q.Scheme),
		Ports:     q.Ports,
		Condition: cond,
		FailAt:    sim.Time(q.FailAtMs) * sim.Millisecond,
		Seed:      q.Seed,
		OSPF:      ospf.Config{FullSPF: q.FullSPF},
	}
	if q.HorizonMs > 0 {
		opts.Horizon = sim.Time(q.HorizonMs) * sim.Millisecond
	}
	r, err := exp.RunRecovery(opts)
	if err != nil {
		return nil, err
	}
	return &Report{
		Kind:        KindRecovery,
		RecoveryMs:  float64(r.ConnectivityLoss) / float64(time.Millisecond),
		CollapseMs:  float64(r.CollapseDuration) / float64(time.Millisecond),
		PacketsSent: r.PacketsSent,
		PacketsLost: r.PacketsLost,
		TCPTimeouts: r.TCPTimeouts,
	}, nil
}

// describe renders a query as a short human-readable label for logs.
func (q Query) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s/%d", q.Kind, q.Scheme, q.Ports)
	if q.Link != nil {
		fmt.Fprintf(&b, " link %s—%s", q.Link.A, q.Link.B)
	}
	if q.Condition != "" {
		fmt.Fprintf(&b, " %s", q.Condition)
	}
	fmt.Fprintf(&b, " @%dms", q.FailAtMs)
	if q.FullSPF {
		b.WriteString(" fullspf")
	}
	return b.String()
}
