// Incremental SPF: repair the cached shortest-path DAG after a single-link
// LSA change instead of recomputing it from scratch.
//
// The paper's recovery anatomy charges OSPF for a full Dijkstra per router
// per topology event; on a k=24 fat tree that is ~720 nodes of BFS when a
// single link's failure perturbs only the DAG below it. The incremental
// path exploits the structure the full computation already guarantees:
//
//   - unit link costs, so distances are BFS levels;
//   - the two-way check makes edge presence symmetric in the endpoint
//     LSAs, so a directed-edge change is always a whole-link change and a
//     node's out-edge list doubles as its in-edge list;
//   - a removed link can only increase distances, and only for the taut
//     descendants of its downstream endpoint; an added link can only
//     decrease distances, propagating outward from its farther endpoint.
//
// Anything else — several links changing in one run, an inconsistent edge
// diff, a restarted router — falls back to the full BFS. Equivalence with
// the full computation is enforced three ways: the Domain self-check
// (every incremental result compared against a fresh full run), the chaos
// equivalence suite (byte-identical traces and FIBs across the corpus and
// fuzzer), and the fib delta tests.
package ospf

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/topo"
)

// spfState is the memory the incremental SPF keeps between runs, all of it
// indexed by switch ordinal (rows hold ordinals too): the two-way-checked
// adjacency rows (each sorted by (neighbor, link)), BFS distances (inf =
// unreachable) and first-hop sets of the last computation, and the origins
// whose LSAs changed since (in arrival order, possibly repeated).
//
// A row is its LSA's own row, shared by every instance, unless the two-way
// check filtered it; then it lives in own, storage kept per origin that
// ever had a filtered row here (setRow).
type spfState struct {
	valid bool
	graph [][]topo.Edge
	own   []ownRow
	dist  []int
	nh    []uint64
	dirty []topo.NodeID

	fullRuns int // full BFS (first run, fallback, or Config.FullSPF)
	incRuns  int // single-link DAG repairs
	sameRuns int // adjacency-preserving runs (seq/prefix-only changes)
}

// ownRow is the storage an instance keeps for origin's filtered rows.
type ownRow struct {
	origin topo.NodeID
	edges  []topo.Edge
}

// init sizes the state for n switches.
func (st *spfState) init(n int) {
	st.graph = make([][]topo.Edge, n)
	st.dist = make([]int, n)
	st.nh = make([]uint64, n)
}

// spfScratch is the working memory of one SPF run. The Domain owns it and
// its instances share it: the simulation is single-threaded and no run
// outlives the call that started it.
type spfScratch struct {
	// stamp marks switches for the current pass: a pass draws a fresh base
	// from mark() and treats stamp[o] == base and base+1 as its two marks,
	// anything lower as unmarked, so no pass ever clears the array.
	stamp  []uint32
	gen    uint32
	cand   []int         // repairRemove: tentative distance per affected switch
	a, b   []topo.NodeID // repair queues, levels and member lists
	rows   []topo.Edge   // filtered rows checkedRow builds, back to back
	spans  []rowSpan     // computeIncremental: each rebuilt row
	search topo.Search   // full searches: frontiers here, results in spfState

	cands    []emitCand             // emitRoutes: one per prefix, first-seen order
	byPrefix map[netaddr.Prefix]int // prefix → index in cands
}

// rowSpan is origin's rebuilt row: its LSA's own row, or a filtered one in
// spfScratch.rows (which, once cut, no later append writes over).
type rowSpan struct {
	origin topo.NodeID
	row    []topo.Edge
}

func (sc *spfScratch) init(n int) {
	sc.stamp = make([]uint32, n)
	sc.cand = make([]int, n)
	sc.byPrefix = make(map[netaddr.Prefix]int)
}

// mark starts a marking pass and returns its base stamp.
func (sc *spfScratch) mark() uint32 {
	if sc.gen > ^uint32(0)-4 {
		clear(sc.stamp)
		sc.gen = 0
	}
	sc.gen += 2
	return sc.gen
}

// markDirty records that an origin's LSA changed since the last SPF run.
func (i *Instance) markDirty(o topo.NodeID) {
	i.spf.dirty = append(i.spf.dirty, o)
}

// taut reports whether an edge from distance a to distance b lies on some
// shortest path.
func taut(a, b int) bool { return a != inf && b != inf && a+1 == b }

// linkDiff accumulates the directed-edge diff between the cached rows and
// the rebuilt ones. The repair handles exactly one link changing in both
// directions the same way; multi records a second link.
type linkDiff struct {
	dirs  int // directed-edge changes seen on link
	link  topo.LinkID
	add   bool
	u, v  topo.NodeID
	ok    bool
	multi bool
}

func (ld *linkDiff) record(from topo.NodeID, e topo.Edge, add bool) {
	switch {
	case ld.dirs == 0:
		*ld = linkDiff{dirs: 1, link: e.Link, add: add, u: from, v: e.To, ok: true}
	case e.Link != ld.link:
		ld.multi = true
	default:
		ld.dirs++
		if ld.add != add || ld.u != e.To || ld.v != from {
			ld.ok = false
		}
	}
}

// diffRow records every edge present in only one of from's two rows. Both
// are sorted by (neighbor, link), so one merge walk finds them.
func (ld *linkDiff) diffRow(from topo.NodeID, oldRow, newRow []topo.Edge) {
	x, y := 0, 0
	for x < len(oldRow) && y < len(newRow) {
		o, n := oldRow[x], newRow[y]
		switch {
		case o == n:
			x++
			y++
		case o.To < n.To || (o.To == n.To && o.Link < n.Link):
			ld.record(from, o, false)
			x++
		default:
			ld.record(from, n, true)
			y++
		}
	}
	for _, o := range oldRow[x:] {
		ld.record(from, o, false)
	}
	for _, n := range newRow[y:] {
		ld.record(from, n, true)
	}
}

// computeIncremental tries to serve the pending SPF run by repairing the
// cached state. It returns false when the caller must fall back to a full
// recomputation; on true the state (and counters) are up to date.
func (i *Instance) computeIncremental() bool {
	st, sc := &i.spf, &i.d.scratch
	if len(st.dirty) == 0 {
		st.sameRuns++
		return true
	}
	slices.Sort(st.dirty)
	st.dirty = slices.Compact(st.dirty)

	// Recompute the adjacency rows of every dirty origin, plus those of
	// their peers: the two-way check makes a peer's edge toward a dirty
	// origin depend on the dirty LSA.
	isDirty := sc.mark()
	isPeer := isDirty + 1
	for _, o := range st.dirty {
		sc.stamp[o] = isDirty
	}
	sc.rows, sc.spans = sc.rows[:0], sc.spans[:0]
	rebuild := func(o topo.NodeID) []topo.Edge {
		row := i.checkedRow(o, &sc.rows)
		sc.spans = append(sc.spans, rowSpan{origin: o, row: row})
		return row
	}
	peers := sc.a[:0]
	addPeers := func(row []topo.Edge) {
		for _, e := range row {
			if sc.stamp[e.To] < isDirty {
				sc.stamp[e.To] = isPeer
				peers = append(peers, e.To)
			}
		}
	}
	for _, o := range st.dirty {
		addPeers(st.graph[o])
		addPeers(rebuild(o))
	}
	slices.Sort(peers)
	for _, x := range peers {
		rebuild(x)
	}
	sc.a = peers

	// Diff old vs new rows into per-link changes. Directions must pair up
	// (symmetry of the two-way check); anything inconsistent bails.
	var ld linkDiff
	for _, sp := range sc.spans {
		ld.diffRow(sp.origin, st.graph[sp.origin], sp.row)
	}
	if ld.multi {
		return false // structural change: full recomputation
	}
	if ld.dirs != 0 && (!ld.ok || ld.dirs != 2) {
		return false
	}
	for _, sp := range sc.spans {
		i.setRow(sp.origin, sp.row)
	}
	st.dirty = st.dirty[:0]
	if ld.dirs == 0 {
		// Seq bumps, prefix changes, or an edge change whose two-way check
		// already failed: the graph is untouched, only emission can differ.
		st.sameRuns++
		return true
	}
	var repaired bool
	if ld.add {
		repaired = i.repairAdd(ld.u, ld.v)
	} else {
		repaired = i.repairRemove(ld.u, ld.v)
	}
	if !repaired {
		return false
	}
	st.incRuns++
	return true
}

// repairRemove repairs dist/nh after the single link between u and v was
// removed (the adjacency rows are already updated). Distances can only
// increase, and only inside the set of taut descendants of the downstream
// endpoint. Returns false to request a full fallback.
func (i *Instance) repairRemove(u, v topo.NodeID) bool {
	st, sc := &i.spf, &i.d.scratch
	du, dv := st.dist[u], st.dist[v]
	var y topo.NodeID
	switch {
	case taut(du, dv):
		y = v
	case taut(dv, du):
		y = u
	default:
		return true // no shortest path used the link; dist and nh stand
	}

	// P: y plus its taut descendants under the old distances — the only
	// nodes whose distance or first-hop set can change. The removed edge is
	// gone from the rows, and it is not a taut out-edge of any member.
	affected := sc.mark()
	settled := affected + 1
	sc.stamp[y] = affected
	members := append(sc.a[:0], y)
	for q := 0; q < len(members); q++ {
		w := members[q]
		for _, e := range st.graph[w] {
			if sc.stamp[e.To] >= affected || !taut(st.dist[w], st.dist[e.To]) {
				continue
			}
			sc.stamp[e.To] = affected
			members = append(members, e.To)
		}
	}
	sc.a = members
	if sc.stamp[i.ord] >= affected {
		return false // the root's distance is 0; reaching it means corrupt state
	}

	// Settle the affected set in distance order, drawing initial candidates
	// from unaffected parents (whose distances are final) and relaxing
	// through already-settled members — Dijkstra restricted to P with a
	// fixed boundary.
	for _, w := range members {
		best := inf
		for _, e := range st.graph[w] { // out-edges double as in-edges
			if sc.stamp[e.To] >= affected {
				continue
			}
			if dp := st.dist[e.To]; dp != inf && dp+1 < best {
				best = dp + 1
			}
		}
		sc.cand[w] = best
	}
	order := sc.b[:0]
	for len(order) < len(members) {
		d := inf
		for _, w := range members {
			if sc.stamp[w] != settled && sc.cand[w] < d {
				d = sc.cand[w]
			}
		}
		if d == inf {
			break // the rest lost their last path to the root
		}
		from := len(order)
		for _, w := range members {
			if sc.stamp[w] != settled && sc.cand[w] == d {
				sc.stamp[w] = settled
				order = append(order, w)
			}
		}
		for _, w := range order[from:] {
			st.dist[w] = d
			for _, e := range st.graph[w] {
				if sc.stamp[e.To] == affected && d+1 < sc.cand[e.To] {
					sc.cand[e.To] = d + 1
				}
			}
		}
	}
	sc.b = order
	for _, w := range members {
		if sc.stamp[w] != settled {
			st.dist[w] = inf
			st.nh[w] = 0
		}
	}
	// Rebuild first-hop sets in settle order: every taut parent either lies
	// outside P (unchanged) or settled strictly earlier.
	for _, w := range order {
		set := i.recomputeNH(w)
		if set == 0 {
			return false // finite distance but no taut parent: corrupt state
		}
		st.nh[w] = set
	}
	return true
}

// repairAdd repairs dist/nh after the single link between u and v was
// added (rows already updated). Distances can only decrease, propagating
// outward from the farther endpoint one distance level at a time.
func (i *Instance) repairAdd(u, v topo.NodeID) bool {
	st, sc := &i.spf, &i.d.scratch
	du, dv := st.dist[u], st.dist[v]
	if du == inf && dv == inf {
		return true // still disconnected from the root
	}
	if dv < du {
		u, v = v, u
		du, dv = dv, du
	}
	if du == dv {
		return true // neither direction is taut; nothing changes
	}
	newdv := du + 1
	if newdv > dv {
		return true // cannot happen with BFS-consistent state; defensive
	}
	queued := sc.mark()
	moved := queued + 1 // queued, and its distance dropped
	sc.stamp[v] = queued
	if newdv < dv {
		st.dist[v] = newdv
		sc.stamp[v] = moved
	}
	// Sweep levels in increasing distance (every enqueue targets the next
	// level): a node's taut parents are final (distance and first-hop set)
	// by the time its level is swept, so one recomputeNH per node suffices.
	// Propagation stops where neither the distance nor the first-hop set
	// changed.
	level, next := append(sc.a[:0], v), sc.b[:0]
	ok := true
sweep:
	for d := newdv; len(level) > 0; d++ {
		next = next[:0]
		for _, w := range level {
			if st.dist[w] != d {
				continue // superseded by a closer repair
			}
			set := i.recomputeNH(w)
			changed := sc.stamp[w] == moved || set != st.nh[w]
			if set == 0 {
				ok = false
				break sweep
			}
			st.nh[w] = set
			if !changed {
				continue
			}
			for _, e := range st.graph[w] {
				dz := st.dist[e.To]
				if d+1 > dz {
					continue
				}
				if sc.stamp[e.To] < queued {
					sc.stamp[e.To] = queued
					next = append(next, e.To)
				}
				if d+1 < dz {
					st.dist[e.To] = d + 1
					sc.stamp[e.To] = moved
				}
			}
		}
		level, next = next, level
	}
	sc.a, sc.b = level, next
	return ok
}

// recomputeNH rebuilds a node's first-hop set from its taut in-edges (the
// symmetric graph makes the out-edge list the in-edge list).
func (i *Instance) recomputeNH(w topo.NodeID) uint64 {
	st := &i.spf
	dw := st.dist[w]
	var set uint64
	for _, e := range st.graph[w] {
		p := e.To
		if !taut(st.dist[p], dw) {
			continue
		}
		if p == i.ord {
			set |= i.portSet(e.Link)
		} else {
			set |= st.nh[p]
		}
	}
	return set
}

// verifySPF compares the incrementally maintained state against a fresh
// full computation — every row, distance and first-hop set — and panics on
// any divergence. Enabled by Domain.EnableSelfCheck; the chaos equivalence
// suite runs every corpus and fuzz scenario under it.
func (i *Instance) verifySPF() {
	st := &i.spf
	var fresh spfState
	fresh.init(len(st.graph))
	var buf []topo.Edge
	for o := range fresh.graph {
		fresh.graph[o] = i.checkedRow(topo.NodeID(o), &buf)
	}
	i.search(fresh.graph, fresh.dist, fresh.nh)
	for o := range fresh.graph {
		n := i.d.sw.Node(topo.NodeID(o))
		if !slices.Equal(st.graph[o], fresh.graph[o]) {
			panic(fmt.Sprintf("ospf ispf: node %d graph row of %d diverged: have %v want %v", i.node, n, st.graph[o], fresh.graph[o]))
		}
		if st.dist[o] != fresh.dist[o] {
			panic(fmt.Sprintf("ospf ispf: node %d dist[%d] = %d, want %d", i.node, n, st.dist[o], fresh.dist[o]))
		}
		if st.nh[o] != fresh.nh[o] {
			panic(fmt.Sprintf("ospf ispf: node %d nh[%d] = %#x, want %#x", i.node, n, st.nh[o], fresh.nh[o]))
		}
	}
}

// install lands a computed route set in the forwarding table. It is always
// a ReplaceSource: the table diffs the list against what it holds and
// touches only the changed prefixes, so no copy of the last list is kept
// here. The counters keep telling the two situations apart — full counts
// the installs under Config.FullSPF and the first one after bootstrap, a
// crash or a restart, when the table may have been cleared; delta the rest.
func (i *Instance) install(routes []fib.Route) {
	tbl := i.d.nw.Table(i.node)
	_ = tbl.ReplaceSource(fib.OSPF, routes) // emitRoutes lists 1..64 hops per route: nothing to reject
	if i.d.cfg.FullSPF || !i.installedValid {
		i.fullInstalls++
	} else {
		i.deltaInstalls++
	}
	i.installedValid = true
	if i.d.selfCheck {
		i.verifyInstall(tbl, routes)
	}
}

// verifyInstall asserts the table's OSPF routes equal the freshly computed
// set — the in-place install's equivalence gate.
func (i *Instance) verifyInstall(tbl *fib.Table, routes []fib.Route) {
	want := make([]fib.Route, len(routes))
	copy(want, routes)
	sort.Slice(want, func(x, y int) bool {
		if want[x].Prefix.Bits() != want[y].Prefix.Bits() {
			return want[x].Prefix.Bits() > want[y].Prefix.Bits()
		}
		return want[x].Prefix.Addr() < want[y].Prefix.Addr()
	})
	got := tbl.SourceRoutes(fib.OSPF)
	diverged := len(got) != len(want)
	if !diverged {
		for idx := range got {
			if got[idx].Prefix != want[idx].Prefix || !slices.Equal(got[idx].NextHops, want[idx].NextHops) {
				diverged = true
				break
			}
		}
	}
	if diverged {
		panic(fmt.Sprintf("ospf ispf: node %d FIB diverged after install:\nhave %v\nwant %v", i.node, got, want))
	}
}

// SPFBreakdown reports how this instance's SPF runs were served: full BFS,
// single-link DAG repairs, and runs where no adjacency changed.
func (i *Instance) SPFBreakdown() (full, incremental, unchanged int) {
	return i.spf.fullRuns, i.spf.incRuns, i.spf.sameRuns
}

// InstallBreakdown reports the installs into a table of unknown contents
// (or under Config.FullSPF) vs the steady-state ones; see install.
func (i *Instance) InstallBreakdown() (full, delta int) {
	return i.fullInstalls, i.deltaInstalls
}
