package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Violation is one oracle finding.
type Violation struct {
	// Oracle is "loop", "conservation", "blackhole" or "fib".
	Oracle string `json:"oracle"`
	// Flow indexes the scenario flow the finding concerns (-1 = global).
	Flow int `json:"flow"`
	// AtMs locates the finding on the virtual timeline (0 = at quiesce).
	AtMs int64 `json:"atMs,omitempty"`
	// Detail is the human-readable finding.
	Detail string `json:"detail"`
}

// FlowStats is the per-flow outcome.
type FlowStats struct {
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	// TTLExpired counts this flow's packets that died of TTL — the loop
	// signal, split into excused (inside a disturbed window) and not.
	TTLExpired uint64 `json:"ttlExpired"`
	// MaxGapMs is the flow's longest delivery gap (by arrival time,
	// including the lead-in before the first delivery and the tail to the
	// horizon) and MaxGapStartMs its onset — the blackhole window a
	// what-if query reports. Zero-length when the flow delivered
	// continuously.
	MaxGapMs      int64 `json:"maxGapMs"`
	MaxGapStartMs int64 `json:"maxGapStartMs"`
}

// Verdict is the outcome of one chaos run: the oracle findings plus the
// counters they were computed from, and a hash of the full event trace for
// byte-identity checks.
type Verdict struct {
	Violations []Violation `json:"violations"`
	Flows      []FlowStats `json:"flows"`
	// TransientLoops counts TTL expiries excused by disturbed windows.
	TransientLoops uint64 `json:"transientLoops"`
	// FalseDowns counts detector verdicts that declared a port of a
	// healthy link down — forced-belief faults plus any adaptive-BFD
	// false positives. Always zero under the fixed detector with no
	// belief faults scheduled.
	FalseDowns uint64 `json:"falseDowns,omitempty"`
	Sent       uint64 `json:"sent"`
	Delivered  uint64 `json:"delivered"`
	Drops      uint64 `json:"drops"`
	Injected   uint64 `json:"injected"`
	HorizonMs  int64  `json:"horizonMs"`
	BudgetMs   int64  `json:"budgetMs"`
	// TraceHash digests the scenario and every arrival, drop and fault
	// application (time, flow, cause): two runs of the same scenario are
	// equivalent iff their hashes match.
	TraceHash string `json:"traceHash"`
}

// Violated reports whether any oracle fired.
func (v *Verdict) Violated() bool { return len(v.Violations) > 0 }

// defaultBudget is the per-control detection+reroute allowance around each
// fault: worst-case failure detection plus full reconvergence (OSPF's SPF
// hold can back off to 10 s under bursts, §IV-B; BGP is MRAI-bound; the
// centralized controller reprograms within its control-loop latency).
func defaultBudget(control string) sim.Time {
	switch control {
	case exp.ControlCentralized:
		return 1500 * sim.Millisecond
	case exp.ControlBGP:
		return 8 * sim.Second
	default:
		return 11 * sim.Second
	}
}

// transition is one scheduled link-state write. Transitions are kept in
// scheduling order so the oracle replay applies equal-time writes exactly
// like the simulator's (time, seq) tie-break does.
type transition struct {
	at   sim.Time
	link topo.LinkID
	// from scopes the write to one direction; topo.None writes both.
	from topo.NodeID
	up   bool
}

// rtFault is a fault with its names resolved against the topology.
type rtFault struct {
	Fault
	at, end sim.Time
	link    topo.LinkID // link-scoped kinds
	fromID  topo.NodeID // A's node (gray/unidir direction)
	nodeID  topo.NodeID // node-scoped kinds
	links   []topo.LinkID
}

// active reports whether the fault window covers now.
func (f *rtFault) active(now sim.Time) bool { return now >= f.at && now < f.end }

type flowRun struct {
	*exp.Probe
	dropped uint64
	expired []ttlExpiry
}

// ttlExpiry is one of a flow's packets that died of TTL, copied out of
// the packet: the drop observer must not keep the *network.Packet, which
// is recycled when the observer returns.
type ttlExpiry struct {
	at   sim.Time
	node topo.NodeID // the switch whose decrement expired it
	hops int         // switch traversals, the network's TTL on a loop
}

// run carries one scenario's runtime state.
type run struct {
	sc      *Scenario
	lab     *core.Lab
	tp      *topo.Topology
	budget  sim.Time
	horizon sim.Time
	flows   []*flowRun
	byKey   map[fib.FlowKey]int
	faults  []*rtFault
	trans   []transition
	hash    hashStream
}

// hashStream folds trace events into a sha256 incrementally.
type hashStream struct {
	buf []byte
	sum hash.Hash
}

// RunOpts observes how a scenario executes without altering it: the trace
// hash is seeded from the scenario JSON alone.
type RunOpts struct {
	// OnFinish, if set, observes the quiesced lab before the verdict is
	// computed: tests and the benchmark read its counters here.
	OnFinish func(lab *core.Lab)
}

// RunScenario executes one chaos scenario to quiesce and evaluates the
// four invariant oracles.
func RunScenario(sc *Scenario) (*Verdict, error) {
	return RunScenarioOpts(sc, RunOpts{})
}

// RunScenarioOpts is RunScenario with an observer.
func RunScenarioOpts(sc *Scenario, opts RunOpts) (*Verdict, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r, err := setup(sc)
	if err != nil {
		return nil, err
	}
	r.schedule()
	if err := r.lab.Sim.Run(r.horizon); err != nil {
		return nil, err
	}
	for _, fr := range r.flows {
		fr.Source.Stop()
	}
	// A free-running detector (BFD) would keep the simulator busy forever.
	r.lab.Net.StopDetector()
	// Drain: in-flight packets, pending detections, SPF runs, refreshes.
	if err := r.lab.Sim.RunUntilIdle(); err != nil {
		return nil, err
	}
	if opts.OnFinish != nil {
		opts.OnFinish(r.lab)
	}
	return r.verdict(), nil
}

// setup builds the lab, resolves flows and faults, installs the fault
// filters and wires the observers.
func setup(sc *Scenario) (*run, error) {
	lab, err := exp.NewLab(exp.LabSpec{
		Scheme: exp.Scheme(sc.Scheme), Ports: sc.Ports, Control: sc.Control,
		Seed: sc.Seed, Detector: sc.Detector, GR: sc.GR,
		DisableFastReroute: sc.DisableFastReroute || sc.EqualPrefixBackup,
	})
	if err != nil {
		return nil, err
	}
	tp := lab.Topo
	if sc.EqualPrefixBackup && len(tp.Rings) > 0 {
		plan, err := core.PlanEqualPrefixBackupRoutes(tp)
		if err != nil {
			return nil, err
		}
		if err := core.Apply(lab.Net, plan); err != nil {
			return nil, err
		}
		// The lab built without ring routes still planned its rack peer
		// routes; a restarted switch reloads both from lab.Plan.
		lab.Plan.Routes = append(plan.Routes, lab.Plan.Routes...)
	}
	r := &run{sc: sc, lab: lab, tp: tp, byKey: make(map[fib.FlowKey]int)}

	r.budget = defaultBudget(sc.controlName())
	if sc.BudgetMs > 0 {
		r.budget = sim.Time(sc.BudgetMs) * sim.Millisecond
	}
	if err := r.resolveFaults(); err != nil {
		return nil, err
	}
	var last sim.Time
	for _, f := range r.faults {
		if e := sim.Time(f.lastTransitionMs()) * sim.Millisecond; e > last {
			last = e
		}
	}
	r.horizon = last + r.budget + 500*sim.Millisecond
	if len(r.faults) == 0 {
		r.horizon = 1 * sim.Second
	}
	if sc.HorizonMs > 0 {
		r.horizon = sim.Time(sc.HorizonMs) * sim.Millisecond
	}
	if err := r.wireFlows(); err != nil {
		return nil, err
	}
	r.hash.init(sc)
	r.installFilters()
	return r, nil
}

func (r *run) resolveSwitch(name string) (topo.NodeID, error) {
	nd := r.tp.FindNode(name)
	if nd == nil || nd.Kind == topo.Host {
		return topo.None, fmt.Errorf("chaos: %q is not a switch", name)
	}
	return nd.ID, nil
}

// fabricLink resolves the (first) link between two named switches.
func (r *run) fabricLink(a, b string) (topo.LinkID, topo.NodeID, error) {
	na, err := r.resolveSwitch(a)
	if err != nil {
		return topo.None, topo.None, err
	}
	nb, err := r.resolveSwitch(b)
	if err != nil {
		return topo.None, topo.None, err
	}
	ls := r.tp.LinksBetween(na, nb)
	if len(ls) == 0 {
		return topo.None, topo.None, fmt.Errorf("chaos: no link %s–%s", a, b)
	}
	return ls[0].ID, na, nil
}

// podLinks returns every fabric link touching a switch of the pod, in
// topology order, deduplicated.
func (r *run) podLinks(pod int) ([]topo.LinkID, error) {
	var out []topo.LinkID
	seen := make(map[topo.LinkID]bool)
	found := false
	for _, id := range r.tp.LiveNodes() {
		nd := r.tp.Node(id)
		if nd.Kind == topo.Host || nd.Pod != pod {
			continue
		}
		found = true
		for _, l := range r.tp.LinksOf(id) {
			other, _ := l.Other(id)
			if r.tp.Node(other).Kind == topo.Host || seen[l.ID] {
				continue
			}
			seen[l.ID] = true
			out = append(out, l.ID)
		}
	}
	if !found {
		return nil, fmt.Errorf("chaos: no switches in pod %d", pod)
	}
	return out, nil
}

// resolveFaults resolves names and precomputes the link-state transition
// list shared by the scheduler and the oracle replay.
func (r *run) resolveFaults() error {
	for i := range r.sc.Faults {
		f := &rtFault{
			Fault: r.sc.Faults[i],
			at:    sim.Time(r.sc.Faults[i].AtMs) * sim.Millisecond,
			end:   sim.Time(r.sc.Faults[i].EndMs) * sim.Millisecond,
		}
		var err error
		switch f.Kind {
		case FaultLinkDown, FaultUnidirDown, FaultGray, FaultFlap, FaultFalseDetect:
			f.link, f.fromID, err = r.fabricLink(f.A, f.B)
		case FaultPodBurst, FaultFlapStorm:
			f.links, err = r.podLinks(f.Pod)
		case FaultCtrlCrash:
			f.nodeID, err = r.resolveSwitch(f.Node)
		case FaultCrash:
			f.nodeID, err = r.resolveSwitch(f.Node)
			if err == nil {
				for _, l := range r.tp.LinksOf(f.nodeID) {
					f.links = append(f.links, l.ID)
				}
			}
		case FaultHelloSuppress:
			f.nodeID, err = r.resolveSwitch(f.Node)
		case FaultLSADrop:
			if f.Node != "" {
				f.nodeID, err = r.resolveSwitch(f.Node)
			} else {
				f.nodeID = topo.None
			}
		}
		if err != nil {
			return fmt.Errorf("chaos: fault %d: %w", i, err)
		}
		r.faults = append(r.faults, f)
		r.trans = append(r.trans, f.transitions()...)
	}
	return nil
}

// transitions enumerates the fault's link-state writes in schedule order.
// Both the event scheduler and the connectivity replay consume this one
// list, so the oracles can never disagree with the engine about what the
// wires did.
func (f *rtFault) transitions() []transition {
	var out []transition
	both := topo.NodeID(topo.None)
	switch f.Kind {
	case FaultLinkDown:
		out = append(out, transition{at: f.at, link: f.link, from: both, up: false})
		if f.EndMs > 0 {
			out = append(out, transition{at: f.end, link: f.link, from: both, up: true})
		}
	case FaultUnidirDown:
		out = append(out, transition{at: f.at, link: f.link, from: f.fromID, up: false})
		if f.EndMs > 0 {
			out = append(out, transition{at: f.end, link: f.link, from: f.fromID, up: true})
		}
	case FaultFlap:
		up := false
		for t := f.at; t < f.end; t += sim.Time(f.PeriodMs) * sim.Millisecond {
			out = append(out, transition{at: t, link: f.link, from: both, up: up})
			up = !up
		}
		out = append(out, transition{at: f.end, link: f.link, from: both, up: true})
	case FaultPodBurst, FaultCrash:
		for _, l := range f.links {
			out = append(out, transition{at: f.at, link: l, from: both, up: false})
		}
		if f.EndMs > 0 {
			for _, l := range f.links {
				out = append(out, transition{at: f.end, link: l, from: both, up: true})
			}
		}
	}
	return out
}

// wireFlows attaches the probe flows (defaulting to the leftmost/rightmost
// pair; 256 B every 1 ms unless a flow says otherwise) and indexes them by
// flow key for the drop observer.
func (r *run) wireFlows() error {
	flows := r.sc.Flows
	if len(flows) == 0 {
		flows = []exp.Flow{
			{Src: "leftmost", Dst: "rightmost"},
			{Src: "rightmost", Dst: "leftmost"},
		}
	}
	probes, err := exp.AttachProbes(r.lab, flows, 256, time.Millisecond, r.horizon)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	for i, p := range probes {
		r.flows = append(r.flows, &flowRun{Probe: p})
		r.byKey[p.Source.FlowKey()] = i
	}
	return nil
}

// installFilters wires the gray-loss, detector-suppression and LSA-flood
// filters. The filters are pure functions of virtual time over the
// resolved fault list, so no extra toggle events are needed.
func (r *run) installFilters() {
	nw, tp := r.lab.Net, r.tp
	rng := r.lab.Sim.Rand()

	hasGray, hasHello := false, false
	for _, f := range r.faults {
		switch f.Kind {
		case FaultGray:
			hasGray = true
		case FaultHelloSuppress:
			hasHello = true
		}
	}
	if hasGray {
		nw.SetLossFilter(func(now sim.Time, at topo.NodeID, port int, pkt *network.Packet) bool {
			l := tp.LinkOnPort(at, port)
			if l == nil {
				return false
			}
			for _, f := range r.faults {
				if f.Kind == FaultGray && f.link == l.ID && f.fromID == at && f.active(now) {
					if rng.Float64() < f.Prob {
						return true
					}
				}
			}
			return false
		})
	}
	if hasHello {
		nw.SetDetectionFilter(func(now sim.Time, node topo.NodeID, port int, observed bool) bool {
			for _, f := range r.faults {
				if f.Kind == FaultHelloSuppress && f.nodeID == node && f.active(now) {
					return true
				}
			}
			return false
		})
	}
	if d := r.lab.Domain; d != nil {
		hasFloodFault := false
		for _, f := range r.faults {
			if f.Kind == FaultLSADrop || f.Kind == FaultLSADelay {
				hasFloodFault = true
			}
		}
		if hasFloodFault {
			d.SetFloodFilter(func(now sim.Time, from, to topo.NodeID, lsa *ospf.LSA) (bool, time.Duration) {
				var extra time.Duration
				for _, f := range r.faults {
					if !f.active(now) {
						continue
					}
					switch f.Kind {
					case FaultLSADrop:
						if f.nodeID == topo.None || f.nodeID == from || f.nodeID == to {
							return true, 0
						}
					case FaultLSADelay:
						extra += time.Duration(f.DelayMs) * time.Millisecond
					}
				}
				return false, extra
			})
		}
	}

	// Observers: arrivals stream through the sink (hashed in verdict);
	// drops are attributed to flows and TTL expiries recorded by value.
	nw.OnDrop(func(now sim.Time, at topo.NodeID, pkt *network.Packet, cause network.DropCause) {
		r.hash.event('d', now, int64(cause), int64(at))
		idx, ok := r.byKey[pkt.Flow]
		if !ok {
			return
		}
		fr := r.flows[idx]
		fr.dropped++
		if cause == network.DropTTLExpired {
			fr.expired = append(fr.expired, ttlExpiry{at: now, node: at, hops: pkt.Hops})
		}
	})
}

// schedule arms every fault's events: the shared link-state transitions
// plus the non-link side effects (FIB wipe, OSPF down/up, rescans and
// refreshes).
func (r *run) schedule() {
	s := r.lab.Sim
	for _, tr := range r.trans {
		tr := tr
		s.At(tr.at, func(now sim.Time) {
			r.hash.event('t', now, int64(tr.link), boolInt(tr.up))
			if tr.from == topo.None {
				r.lab.Net.SetLinkState(tr.link, tr.up)
			} else {
				r.lab.Net.SetLinkDirectionState(tr.link, tr.from, tr.up)
			}
		})
	}
	det := sim.Time(r.lab.Net.DetectionBound())
	for _, f := range r.faults {
		f := f
		switch f.Kind {
		case FaultCrash:
			s.At(f.at, func(now sim.Time) {
				r.hash.event('c', now, int64(f.nodeID), 0)
				r.lab.Net.Table(f.nodeID).Clear()
				r.ctrlSetNodeDown(now, f.nodeID, true)
			})
			if f.EndMs > 0 {
				s.At(f.end, func(now sim.Time) {
					r.hash.event('r', now, int64(f.nodeID), 0)
					// A rebooted switch reloads connected + static config
					// from NVRAM, then the control plane re-originates.
					if err := r.lab.Net.ReinstallConnectedRoutes(f.nodeID); err != nil {
						panic(fmt.Sprintf("chaos: reinstall connected on restart: %v", err))
					}
					if len(r.lab.Plan.Routes) > 0 {
						if err := core.ApplyNode(r.lab.Net, r.lab.Plan, f.nodeID); err != nil {
							panic(fmt.Sprintf("chaos: reinstall backup routes on restart: %v", err))
						}
					}
					r.ctrlSetNodeDown(now, f.nodeID, false)
				})
				// Once the neighbors' detectors have seen the links come
				// back, a refresh round repopulates the wiped LSDB (the
				// model floods only on change; RFC 2328 would refresh).
				// BGP needs no refresh: session re-establishment already
				// re-advertises the full tables.
				if r.lab.Domain != nil {
					s.At(f.end+det+5*sim.Millisecond, func(now sim.Time) {
						r.lab.Domain.RefreshAll(now)
					})
				}
			}
		case FaultCtrlCrash:
			s.At(f.at, func(now sim.Time) {
				r.hash.event('c', now, int64(f.nodeID), 1)
				r.ctrlSetNodeDown(now, f.nodeID, true)
			})
			s.At(f.end, func(now sim.Time) {
				r.hash.event('r', now, int64(f.nodeID), 1)
				r.ctrlSetNodeDown(now, f.nodeID, false)
			})
			// The links never went down, so neighbors flood nothing on
			// their own; a refresh round repopulates the restarted OSPF
			// instance's LSDB. The persisted FIB needs no reinstall.
			if r.lab.Domain != nil {
				s.At(f.end+5*sim.Millisecond, func(now sim.Time) {
					r.lab.Domain.RefreshAll(now)
				})
			}
		case FaultFalseDetect:
			s.At(f.at, func(now sim.Time) {
				r.hash.event('b', now, int64(f.link), 0)
				r.forceBelief(now, f.link, false)
			})
			s.At(f.end, func(now sim.Time) {
				r.hash.event('b', now, int64(f.link), 1)
				r.rescanLinks([]topo.LinkID{f.link})
			})
		case FaultFlapStorm:
			down := true
			for t := f.at; t < f.end; t += sim.Time(f.PeriodMs) * sim.Millisecond {
				tickDown := down
				s.At(t, func(now sim.Time) {
					r.hash.event('b', now, int64(f.Pod), boolInt(!tickDown))
					if tickDown {
						for _, l := range f.links {
							r.forceBelief(now, l, false)
						}
					} else {
						r.rescanLinks(f.links)
					}
				})
				down = !down
			}
			s.At(f.end, func(now sim.Time) {
				r.hash.event('b', now, int64(f.Pod), 1)
				r.rescanLinks(f.links)
			})
		case FaultLSADrop:
			// The dropped floods are gone; refresh at window end like the
			// periodic LSA refresh would.
			s.At(f.end+sim.Millisecond, func(now sim.Time) {
				r.lab.Domain.RefreshAll(now)
			})
		case FaultHelloSuppress:
			// Beliefs are stale; re-arm the detectors.
			s.At(f.end, func(sim.Time) {
				r.lab.Net.RescanPorts(f.nodeID)
			})
		}
	}
	// Quiesce: stop the probe sources at the horizon; the caller drains.
	s.At(r.horizon, func(sim.Time) {
		for _, fr := range r.flows {
			fr.Source.Stop()
		}
	})
}

// ctrlSetNodeDown crashes or restarts the node's routing process on
// whichever control plane the scenario runs (Validate gates the crash
// kinds to OSPF and BGP).
func (r *run) ctrlSetNodeDown(now sim.Time, node topo.NodeID, down bool) {
	switch {
	case r.lab.Domain != nil:
		r.lab.Domain.SetNodeDown(now, node, down)
	case r.lab.BGP != nil:
		r.lab.BGP.SetNodeDown(now, node, down)
	}
}

// forceBelief writes a detector verdict for both endpoints of the link
// (A end first) without touching the wire — a detector false positive.
func (r *run) forceBelief(now sim.Time, link topo.LinkID, up bool) {
	for _, end := range r.lab.Net.LinkEnds(link) {
		r.lab.Net.SetPortBelief(now, end.Node, end.Port, up)
	}
}

// rescanLinks re-arms the detectors on every endpoint node of the links,
// letting the configured detector re-assert the actual wire state (a
// direct belief write could mask a concurrent real failure).
func (r *run) rescanLinks(links []topo.LinkID) {
	seen := make(map[topo.NodeID]bool)
	for _, id := range links {
		for _, end := range r.lab.Net.LinkEnds(id) {
			if seen[end.Node] {
				continue
			}
			seen[end.Node] = true
			r.lab.Net.RescanPorts(end.Node)
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// hashStream implementation.

func (h *hashStream) init(sc *Scenario) {
	h.buf = make([]byte, 0, 64)
	h.sum = sha256.New()
	// Seed the digest with the scenario identity.
	key, err := json.Marshal(sc)
	if err != nil {
		panic(fmt.Sprintf("chaos: marshaling scenario: %v", err))
	}
	h.sum.Write(key)
}

// event folds one (tag, time, a, b) tuple into the digest.
func (h *hashStream) event(tag byte, now sim.Time, a, b int64) {
	h.buf = h.buf[:0]
	h.buf = append(h.buf, tag)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(now))
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(a))
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(b))
	h.sum.Write(h.buf)
}

func (h *hashStream) hex() string {
	return hex.EncodeToString(h.sum.Sum(nil))
}
