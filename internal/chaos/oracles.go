package chaos

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The four oracles, in the order verdict evaluates them:
//
//   - conservation: at quiesce every packet is accounted for —
//     sent == delivered + dropped, globally and per flow. There is no
//     allowed violation window; a miss means the data plane leaked or
//     double-counted a packet.
//   - loop: a TTL expiry is a forwarding loop. Expiries inside a
//     disturbed window (any fault ± budget, or the flow structurally
//     disconnected) are transient micro-loops and only counted; expiries
//     outside are violations.
//   - blackhole: every delivery gap of a flow, minus the disturbed
//     windows, must be shorter than the slack (10 probe intervals, min
//     50 ms). A longer uncovered gap means packets silently died while
//     the network was nominally healthy and converged.
//   - fib: after quiesce, every flow whose endpoints the final link state
//     still connects must have a loop-free working forwarding path no
//     longer than the BFS shortest path + maxStretch extra hops.

// maxStretch is the post-convergence path-length allowance over the BFS
// shortest path: F²Tree detours add ring hops and BGP's path-vector
// choices need not be hop-shortest.
const maxStretch = 8

// interval is a half-open [a, b) span of virtual time.
type interval struct{ a, b sim.Time }

func (iv interval) len() sim.Time {
	if iv.b <= iv.a {
		return 0
	}
	return iv.b - iv.a
}

// mergeIntervals sorts and coalesces overlapping or touching intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(x, y interval) int { return cmp.Compare(x.a, y.a) })
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.a <= last.b {
			if iv.b > last.b {
				last.b = iv.b
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered reports whether t lies inside the merged interval set.
func covered(merged []interval, t sim.Time) bool {
	i, _ := slices.BinarySearchFunc(merged, t, func(iv interval, t sim.Time) int {
		if iv.b <= t {
			return -1
		}
		if iv.a > t {
			return 1
		}
		return 0
	})
	return i < len(merged) && merged[i].a <= t && t < merged[i].b
}

// uncoveredLen measures how much of gap the merged interval set fails to
// cover.
func uncoveredLen(gap interval, merged []interval) sim.Time {
	rest := gap.len()
	for _, iv := range merged {
		if iv.b <= gap.a {
			continue
		}
		if iv.a >= gap.b {
			break
		}
		lo, hi := iv.a, iv.b
		if lo < gap.a {
			lo = gap.a
		}
		if hi > gap.b {
			hi = gap.b
		}
		rest -= hi - lo
	}
	return rest
}

// sortedTransitions returns the transition list in replay order: stably
// sorted by time, so equal-time writes keep their scheduling order —
// exactly the simulator's (time, seq) tie-break.
func sortedTransitions(trs []transition) []transition {
	s := slices.Clone(trs)
	slices.SortStableFunc(s, func(x, y transition) int { return cmp.Compare(x.at, y.at) })
	return s
}

// reach replays the link-state timeline and answers the oracles' path
// questions over links healthy in both directions — the bothUp condition
// the BFD-style detectors enforce. One adjacency arena and one search
// serve every transition of a run.
type reach struct {
	tp     *topo.Topology
	dirs   [][2]bool // per-direction link state
	up     []bool    // both directions up
	graph  topo.Graph
	search topo.Search
}

func newReach(tp *topo.Topology) *reach {
	rc := &reach{tp: tp, dirs: make([][2]bool, len(tp.Links)), up: make([]bool, len(tp.Links)),
		search: topo.Search{Dist: make([]int, len(tp.Nodes))}}
	for _, l := range tp.LiveLinks() {
		rc.dirs[l.ID], rc.up[l.ID] = [2]bool{true, true}, true
	}
	rc.graph.Build(tp, rc.up, true)
	return rc
}

// apply replays one transition; the rows follow at the next Build.
func (rc *reach) apply(tr transition) {
	d := &rc.dirs[tr.link]
	switch {
	case tr.from == topo.None:
		*d = [2]bool{tr.up, tr.up}
	case rc.tp.Link(tr.link).B == tr.from:
		d[1] = tr.up
	default:
		d[0] = tr.up
	}
	rc.up[tr.link] = d[0] && d[1]
}

// hops returns the shortest src→dst hop count, topo.Unreachable if none.
func (rc *reach) hops(src, dst topo.NodeID) int {
	rc.search.Run(rc.tp, rc.graph.Rows, src, src)
	return rc.search.Dist[dst]
}

// disconnectedIntervals replays the whole timeline and returns, per flow,
// the spans during which its endpoints had no bothUp path at all — outages
// no routing scheme can mask. It leaves rc in the quiesced state.
func (rc *reach) disconnectedIntervals(sorted []transition, flows []*flowRun, end sim.Time) [][]interval {
	out := make([][]interval, len(flows))
	openAt := make([]sim.Time, len(flows)) // onset of the current outage; -1 while connected
	check := func(t sim.Time) {
		for k, fr := range flows {
			switch c := rc.hops(fr.Src, fr.Dst) != topo.Unreachable; {
			case c && openAt[k] >= 0:
				out[k], openAt[k] = append(out[k], interval{openAt[k], t}), -1
			case !c && openAt[k] < 0:
				openAt[k] = t
			}
		}
	}
	for k := range openAt {
		openAt[k] = -1
	}
	check(0)
	for i := 0; i < len(sorted); {
		t := sorted[i].at
		for ; i < len(sorted) && sorted[i].at == t; i++ {
			rc.apply(sorted[i])
		}
		rc.graph.Build(rc.tp, rc.up, true)
		check(t)
	}
	for k, at := range openAt {
		if at >= 0 {
			out[k] = append(out[k], interval{at, end})
		}
	}
	return out
}

// maxListedPerOracle caps the violations reported per (oracle, flow); the
// remainder is summarized so a looping scenario doesn't emit thousands of
// identical findings.
const maxListedPerOracle = 3

// verdict evaluates the oracles over the finished run.
func (r *run) verdict() *Verdict {
	stats := r.lab.Net.Stats()
	v := &Verdict{
		Violations: []Violation{},
		Sent:       stats.Sent,
		Delivered:  stats.Delivered,
		Drops:      stats.TotalDrops(),
		Injected:   stats.Drops[network.DropInjected],
		FalseDowns: stats.FalseDowns,
		HorizonMs:  int64(r.horizon / sim.Millisecond),
		BudgetMs:   int64(r.budget / sim.Millisecond),
	}
	ms := func(t sim.Time) int64 { return int64(t / sim.Millisecond) }

	// Global conservation: the network's own ledger must balance, and the
	// sources' ledgers must match it.
	var srcSent uint64
	for _, fr := range r.flows {
		srcSent += fr.Source.Sent()
	}
	if stats.Sent != stats.Delivered+v.Drops {
		v.Violations = append(v.Violations, Violation{
			Oracle: "conservation", Flow: -1,
			Detail: fmt.Sprintf("network ledger: sent %d != delivered %d + dropped %d",
				stats.Sent, stats.Delivered, v.Drops),
		})
	}
	if stats.Sent != srcSent {
		v.Violations = append(v.Violations, Violation{
			Oracle: "conservation", Flow: -1,
			Detail: fmt.Sprintf("sources sent %d, network counted %d", srcSent, stats.Sent),
		})
	}

	// Disturbed windows shared by every flow: each fault from its onset
	// until its last state change plus the reconvergence budget.
	global := make([]interval, 0, len(r.faults))
	for _, f := range r.faults {
		last := sim.Time(f.lastTransitionMs()) * sim.Millisecond
		global = append(global, interval{f.at, last + r.budget})
	}
	final := newReach(r.tp) // quiesced once the replay below has run
	disc := final.disconnectedIntervals(sortedTransitions(r.trans), r.flows, r.horizon)

	for i, fr := range r.flows {
		// Fold arrivals into the trace digest (deterministic order).
		for _, a := range fr.Sink.Arrivals {
			r.hash.event('a', a.Arrived, int64(i), int64(a.Seq))
		}
		fs := FlowStats{
			Src: fr.Flow.Src, Dst: fr.Flow.Dst,
			Sent:       fr.Source.Sent(),
			Delivered:  uint64(len(fr.Sink.Arrivals)),
			Dropped:    fr.dropped,
			TTLExpired: uint64(len(fr.expired)),
		}
		v.Flows = append(v.Flows, fs)

		disturbed := slices.Clone(global)
		for _, d := range disc[i] {
			disturbed = append(disturbed, interval{d.a, d.b + r.budget})
		}
		disturbed = mergeIntervals(disturbed)

		// Per-flow conservation.
		if fs.Sent != fs.Delivered+fs.Dropped {
			v.Violations = append(v.Violations, Violation{
				Oracle: "conservation", Flow: i,
				Detail: fmt.Sprintf("flow ledger: sent %d != delivered %d + dropped %d",
					fs.Sent, fs.Delivered, fs.Dropped),
			})
		}

		// Loop oracle: TTL expiries outside disturbed windows.
		loops := 0
		for _, e := range fr.expired {
			if covered(disturbed, e.at) {
				v.TransientLoops++
				continue
			}
			loops++
			if loops <= maxListedPerOracle {
				v.Violations = append(v.Violations, Violation{
					Oracle: "loop", Flow: i, AtMs: ms(e.at),
					Detail: fmt.Sprintf("TTL expiry at %d ms on %s after %d hops, outside any disturbed window",
						ms(e.at), r.tp.Node(e.node).Name, e.hops),
				})
			}
		}
		if loops > maxListedPerOracle {
			v.Violations = append(v.Violations, Violation{
				Oracle: "loop", Flow: i,
				Detail: fmt.Sprintf("%d more unexcused TTL expiries", loops-maxListedPerOracle),
			})
		}

		// Blackhole oracle: uncovered delivery gaps.
		ivUs := fr.Flow.IntervalUs
		if ivUs == 0 {
			ivUs = 1000
		}
		slack := sim.Time(10*ivUs) * sim.Microsecond
		if min := 50 * sim.Millisecond; slack < min {
			slack = min
		}
		holes := 0
		prev := sim.Time(0)
		checkGap := func(gap interval) {
			if gap.len() <= slack {
				return
			}
			if un := uncoveredLen(gap, disturbed); un > slack {
				holes++
				if holes <= maxListedPerOracle {
					v.Violations = append(v.Violations, Violation{
						Oracle: "blackhole", Flow: i, AtMs: ms(gap.a),
						Detail: fmt.Sprintf("no delivery %d..%d ms with %d ms outside any disturbed window",
							ms(gap.a), ms(gap.b), int64(un/sim.Millisecond)),
					})
				}
			}
		}
		var maxGap interval
		noteGap := func(gap interval) {
			if gap.len() > maxGap.len() {
				maxGap = gap
			}
			checkGap(gap)
		}
		for _, a := range fr.Sink.Arrivals {
			noteGap(interval{prev, a.Arrived})
			prev = a.Arrived
		}
		if prev < r.horizon {
			noteGap(interval{prev, r.horizon})
		}
		v.Flows[i].MaxGapMs = int64(maxGap.len() / sim.Millisecond)
		v.Flows[i].MaxGapStartMs = ms(maxGap.a)
		if holes > maxListedPerOracle {
			v.Violations = append(v.Violations, Violation{
				Oracle: "blackhole", Flow: i,
				Detail: fmt.Sprintf("%d more uncovered delivery gaps", holes-maxListedPerOracle),
			})
		}

		// FIB consistency at quiesce: if the final link state connects the
		// endpoints, the FIB walk must reach the destination loop-free and
		// without excessive stretch.
		if shortest := final.hops(fr.Src, fr.Dst); shortest != topo.Unreachable {
			path, err := r.lab.Net.PathTrace(fr.Src, fr.Source.FlowKey())
			switch {
			case err != nil:
				v.Violations = append(v.Violations, Violation{
					Oracle: "fib", Flow: i,
					Detail: fmt.Sprintf("connected (%d hops shortest) but FIB walk fails: %v", shortest, err),
				})
			case path.Hops() > shortest+maxStretch:
				v.Violations = append(v.Violations, Violation{
					Oracle: "fib", Flow: i,
					Detail: fmt.Sprintf("FIB path %d hops vs %d shortest (+%d allowed)",
						path.Hops(), shortest, maxStretch),
				})
			}
		}
	}
	v.TraceHash = r.hash.hex()
	return v
}
