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

// linkDirs is the replayed per-direction link state.
type linkDirs [][2]bool

func initialDirs(tp *topo.Topology) linkDirs {
	dirs := make(linkDirs, len(tp.Links))
	for _, l := range tp.LiveLinks() {
		dirs[l.ID] = [2]bool{true, true}
	}
	return dirs
}

func (d linkDirs) apply(tp *topo.Topology, tr transition) {
	if tr.from == topo.None {
		d[tr.link] = [2]bool{tr.up, tr.up}
		return
	}
	dir := 0
	if tp.Link(tr.link).B == tr.from {
		dir = 1
	}
	d[tr.link][dir] = tr.up
}

// connected BFSes src→dst over links healthy in both directions — the
// same bothUp condition the BFD-style detectors enforce.
func (d linkDirs) connected(tp *topo.Topology, src, dst topo.NodeID) bool {
	return d.hops(tp, src, dst) >= 0
}

// hops returns the BFS hop count src→dst over bothUp links, -1 if
// disconnected.
func (d linkDirs) hops(tp *topo.Topology, src, dst topo.NodeID) int {
	if src == dst {
		return 0
	}
	dist := make([]int, len(tp.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []topo.NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range tp.LinksOf(cur) {
			if !d[l.ID][0] || !d[l.ID][1] {
				continue
			}
			next, _ := l.Other(cur)
			if dist[next] >= 0 {
				continue
			}
			dist[next] = dist[cur] + 1
			if next == dst {
				return dist[next]
			}
			queue = append(queue, next)
		}
	}
	return -1
}

// sortedTransitions returns the transition list in replay order: stably
// sorted by time, so equal-time writes keep their scheduling order —
// exactly the simulator's (time, seq) tie-break.
func sortedTransitions(trs []transition) []transition {
	s := slices.Clone(trs)
	slices.SortStableFunc(s, func(x, y transition) int { return cmp.Compare(x.at, y.at) })
	return s
}

// disconnectedIntervals replays the link-state timeline and returns the
// spans during which src and dst had no bothUp path at all — outages no
// routing scheme can mask.
func disconnectedIntervals(tp *topo.Topology, sorted []transition, src, dst topo.NodeID, end sim.Time) []interval {
	dirs := initialDirs(tp)
	var out []interval
	var openAt sim.Time
	open := !dirs.connected(tp, src, dst)
	i := 0
	for i < len(sorted) {
		t := sorted[i].at
		for i < len(sorted) && sorted[i].at == t {
			dirs.apply(tp, sorted[i])
			i++
		}
		c := dirs.connected(tp, src, dst)
		if open && c {
			out = append(out, interval{openAt, t})
			open = false
		} else if !open && !c {
			openAt = t
			open = true
		}
	}
	if open {
		out = append(out, interval{openAt, end})
	}
	return out
}

// finalDirs replays the whole timeline and returns the quiesced state.
func finalDirs(tp *topo.Topology, sorted []transition) linkDirs {
	dirs := initialDirs(tp)
	for _, tr := range sorted {
		dirs.apply(tp, tr)
	}
	return dirs
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
	sorted := sortedTransitions(r.trans)
	final := finalDirs(r.tp, sorted)

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
			TTLExpired: uint64(len(fr.ttlTimes)),
		}
		v.Flows = append(v.Flows, fs)

		disturbed := slices.Clone(global)
		disc := disconnectedIntervals(r.tp, sorted, fr.Src, fr.Dst, r.horizon)
		for _, d := range disc {
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
		for _, t := range fr.ttlTimes {
			if covered(disturbed, t) {
				v.TransientLoops++
				continue
			}
			loops++
			if loops <= maxListedPerOracle {
				v.Violations = append(v.Violations, Violation{
					Oracle: "loop", Flow: i, AtMs: ms(t),
					Detail: fmt.Sprintf("TTL expiry at %d ms outside any disturbed window", ms(t)),
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
		shortest := final.hops(r.tp, fr.Src, fr.Dst)
		if shortest >= 0 {
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
