// Package fib implements a router forwarding table: longest-prefix-match
// over routes with ECMP next-hop sets, per-source administrative distance,
// and — crucially for F²Tree — fallback to shorter prefixes when every next
// hop of a longer match is locally known to be unusable.
//
// That fallback is the data-plane mechanism the paper relies on (§II-B):
// the static backup routes (DCN /16 via the right across neighbor, covering
// /15 via the left across neighbor) are pre-installed under the OSPF /24s
// and win a lookup only when the /24's next hops are all dead.
package fib

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/netaddr"
)

// Source identifies the protocol that installed a route. Lower values win
// when the same prefix is installed by several sources (administrative
// distance).
type Source int

// Route sources in ascending administrative distance. Only one routing
// protocol runs at a time in the simulator, so the OSPF/BGP relative order
// never decides a lookup.
const (
	Connected Source = iota + 1
	Static
	OSPF
	BGP
)

// String returns the conventional name of the source.
func (s Source) String() string {
	switch s {
	case Connected:
		return "connected"
	case Static:
		return "static"
	case OSPF:
		return "ospf"
	case BGP:
		return "bgp"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// NextHop is one egress choice: the local port to send on and the neighbor
// address reached through it.
type NextHop struct {
	Port int
	Via  netaddr.Addr
}

// String formats the next hop for diagnostics.
func (n NextHop) String() string {
	return fmt.Sprintf("via %v port %d", n.Via, n.Port)
}

// HopLess is the canonical next-hop order (port, then neighbor address).
// Every ECMP set in the simulator is sorted with it so that route
// installation is deterministic; it is the comparator to pass to
// detsort.KeysFunc when extracting hops from a set.
func HopLess(a, b NextHop) bool {
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Via < b.Via
}

// Route is a prefix with its ECMP next-hop set, installed by a source.
type Route struct {
	Prefix   netaddr.Prefix
	Source   Source
	NextHops []NextHop
}

// FlowKey is the five-tuple ECMP hashes on (RFC 2992 style hashing).
type FlowKey struct {
	Src, Dst         netaddr.Addr
	Proto            uint8
	SrcPort, DstPort uint16
}

// Hash returns a stable FNV-1a hash of the five-tuple. It runs once per
// forwarded packet per hop (ECMP pick), so it is written closure-free.
func (k FlowKey) Hash() uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 24; i >= 0; i -= 8 {
		h = (h ^ uint32(byte(k.Src>>i))) * prime
	}
	for i := 24; i >= 0; i -= 8 {
		h = (h ^ uint32(byte(k.Dst>>i))) * prime
	}
	h = (h ^ uint32(k.Proto)) * prime
	h = (h ^ uint32(byte(k.SrcPort>>8))) * prime
	h = (h ^ uint32(byte(k.SrcPort))) * prime
	h = (h ^ uint32(byte(k.DstPort>>8))) * prime
	h = (h ^ uint32(byte(k.DstPort))) * prime
	return h
}

// numSources is the number of route sources: an entry keeps one next-hop
// slot for each, indexed by Source-1.
const numSources = int(BGP)

// maxHops bounds a route's ECMP set: a lookup holds the usable subset of a
// set as a bitmask in one uint64 (the width rule topo.Search's port masks
// and bgp's session masks follow too), so a wider route is an Add error.
const maxHops = 64

// entry holds every route installed for one prefix, one slot per source.
type entry struct {
	// hops[s-1] is the next-hop list source s installed, sorted by port;
	// nil when s has no route for the prefix.
	hops [numSources][]NextHop
	// stamp is the generation of the last ReplaceSource call that named the
	// prefix; the call withdraws the slots of its source it did not stamp.
	stamp uint64
	// live is the usable subset of best() as a bitmask over its positions,
	// memoized by Lookup and valid only while liveAt equals the table's
	// epoch (which starts at 1, so a fresh entry holds no memo).
	live, liveAt uint64
}

// best returns the next hops of the lowest-distance source present.
func (e *entry) best() []NextHop {
	for s := range e.hops {
		if len(e.hops[s]) != 0 {
			return e.hops[s]
		}
	}
	return nil
}

// level holds the entries of one prefix length as two parallel arrays in
// ascending address order, which is the order Routes() lists them in.
type level struct {
	bits int
	mask netaddr.Addr
	keys []netaddr.Addr
	ents []entry
	// index finds a key without a search: an open-addressed table of
	// positions+1 into keys (0 = free slot), probed from the top bits of a
	// multiplicative hash of the address, at most half full. Only Lookup
	// uses it; installs search keys directly and empty it when they insert
	// or remove a key, and the next Lookup rebuilds it.
	index []int32
	shift uint
}

// linearMax is the level size up to which find scans keys instead of
// hashing: a ToR's four host routes, the one or two static backups.
const linearMax = 4

// find returns the entry stored under key, or nil.
func (l *level) find(key netaddr.Addr) *entry {
	if len(l.keys) <= linearMax {
		for i, k := range l.keys {
			if k == key {
				return &l.ents[i]
			}
		}
		return nil
	}
	if len(l.index) == 0 {
		l.reindex()
	}
	for h := indexHash(key) >> l.shift; ; h = (h + 1) & uint32(len(l.index)-1) {
		at := l.index[h]
		if at == 0 {
			return nil
		}
		if l.keys[at-1] == key {
			return &l.ents[at-1]
		}
	}
}

// indexHash is multiplicative (Fibonacci) hashing; callers keep the top bits.
func indexHash(key netaddr.Addr) uint32 { return uint32(key) * 0x9E3779B1 }

// reindex rebuilds the index over the current keys.
func (l *level) reindex() {
	size := 2 * linearMax
	for size < 2*len(l.keys) {
		size <<= 1
	}
	if cap(l.index) < size {
		l.index = make([]int32, size)
	} else {
		l.index = l.index[:size]
		clear(l.index)
	}
	l.shift = uint(32 - bits.Len(uint(size-1)))
	for i, key := range l.keys {
		h := indexHash(key) >> l.shift
		for l.index[h] != 0 {
			h = (h + 1) & uint32(size-1)
		}
		l.index[h] = int32(i + 1)
	}
}

// compact drops the entries that no longer hold a route of any source.
func (l *level) compact() {
	n := 0
	for i := range l.ents {
		if l.ents[i].best() == nil {
			continue
		}
		if n != i {
			l.keys[n], l.ents[n] = l.keys[i], l.ents[i]
		}
		n++
	}
	if n == len(l.keys) {
		return
	}
	clear(l.ents[n:]) // release the hop arrays of what moved down
	l.keys, l.ents, l.index = l.keys[:n], l.ents[:n], l.index[:0]
}

// Table is a forwarding table. The zero value is not usable; call New.
// Each table belongs to one switch of one simulation.
type Table struct {
	// levels holds one level per prefix length that ever held a route, in
	// descending length — the only lengths Lookup visits. A production
	// table holds ~3 distinct lengths (/32, /24, /16, /15), not 33.
	levels []level
	// count[s-1] is the number of routes source s holds.
	count [numSources]int

	// epoch versions every state a Lookup result depends on. Route
	// mutations bump it internally; link-usability transitions must bump
	// it via InvalidateFlowCache (the usable predicate is external state).
	epoch uint64
	// memo says whether Lookup keeps each entry's live set (EnableFlowCache).
	memo bool
	// gen numbers the ReplaceSource calls (entry.stamp).
	gen uint64
}

// New returns an empty table.
func New() *Table {
	return &Table{epoch: 1}
}

// EnableFlowCache turns on the live-hop memo: Lookup keeps, per prefix, the
// set of next hops the usable predicate accepted, and reuses it until the
// epoch moves. capEntries is unused — a per-prefix memo lives in the
// entries and cannot outgrow the table; the parameter (and the name, from
// the per-flow cache this replaced) stay because bench/ calls them.
//
// Correctness contract: the memo is invalidated by epoch comparison, and
// the epoch advances automatically on every Add/Remove/ReplaceSource/Clear.
// The caller owns the other half — whenever the state behind a Lookup's
// usable predicate changes (a port's believed state flips), it must call
// InvalidateFlowCache, or memoized live sets may bypass the F²Tree
// fallback. Every Lookup on a memoizing table must pass the same predicate.
func (t *Table) EnableFlowCache(capEntries int) { t.memo = true }

// InvalidateFlowCache discards every memoized live set by advancing the
// table's epoch. Call it on any link-usability transition visible to the
// usable predicates passed to Lookup.
func (t *Table) InvalidateFlowCache() { t.epoch++ }

// known reports whether s is one of Connected..BGP, the sources an entry
// has a slot for.
func (s Source) known() bool { return Connected <= s && s <= BGP }

// validate checks a route before anything is written for it.
func validate(src Source, r Route) error {
	switch {
	case !src.known():
		return fmt.Errorf("fib: route %v has unknown source %v", r.Prefix, src)
	case len(r.NextHops) == 0:
		return fmt.Errorf("fib: route %v has no next hops", r.Prefix)
	case len(r.NextHops) > maxHops:
		return fmt.Errorf("fib: route %v has %d next hops, more than the %d a live mask holds", r.Prefix, len(r.NextHops), maxHops)
	}
	return nil
}

// slot returns the level and position of prefix p's entry; the position is
// -1 when the table has none and room is 0. With room > 0 a missing entry
// (and level) is inserted, and arrays that must grow for it grow by room
// entries at once — the number the caller may still insert. hint is a guess
// at the position, tried before searching: a caller walking a route list
// passes one past its previous hit, which is right whenever the emitter
// lists a length's prefixes in ascending order (all three do).
func (t *Table) slot(p netaddr.Prefix, room, hint int) (*level, int) {
	b, li := p.Bits(), 0
	for li < len(t.levels) && t.levels[li].bits > b {
		li++
	}
	if li == len(t.levels) || t.levels[li].bits != b {
		if room == 0 {
			return nil, -1
		}
		t.levels = slices.Insert(t.levels, li, level{bits: b, mask: (^netaddr.Addr(0)).Masked(b)})
	}
	l := &t.levels[li]
	at, ok := hint, hint < len(l.keys) && l.keys[hint] == p.Addr()
	if !ok {
		at, ok = slices.BinarySearch(l.keys, p.Addr())
	}
	if !ok {
		if room == 0 {
			return l, -1
		}
		if n := len(l.keys); n == cap(l.keys) {
			grown := n + max(room, n) // at least doubled, so lone Adds stay amortised
			l.keys = append(make([]netaddr.Addr, 0, grown), l.keys...)
			l.ents = append(make([]entry, 0, grown), l.ents...)
		}
		l.keys, l.ents = slices.Insert(l.keys, at, p.Addr()), slices.Insert(l.ents, at, entry{})
		l.index = l.index[:0]
	}
	return l, at
}

// put makes hops the route of src in e: copied onto the end of buf (the
// grown buf is returned) and stably sorted by port for deterministic ECMP —
// an insertion sort at these sizes, one comparison per hop for the emitters,
// which list hops in HopLess order already.
func (t *Table) put(e *entry, src Source, hops, buf []NextHop) []NextHop {
	if e.hops[src-1] == nil {
		t.count[src-1]++
	}
	lo := len(buf)
	buf = append(buf, hops...)
	e.hops[src-1] = buf[lo:len(buf):len(buf)]
	slices.SortStableFunc(e.hops[src-1], func(a, b NextHop) int { return cmp.Compare(a.Port, b.Port) })
	return buf
}

// Add installs (or replaces) the route for (prefix, source). Next hops are
// kept sorted by port for deterministic ECMP. An empty next-hop set, one of
// more than 64 hops and a source outside Connected..BGP are errors.
func (t *Table) Add(r Route) error {
	if err := validate(r.Source, r); err != nil {
		return err
	}
	l, at := t.slot(r.Prefix, 1, 0)
	t.put(&l.ents[at], r.Source, r.NextHops, nil)
	t.epoch++
	return nil
}

// Remove deletes the route for (prefix, source). Removing a route that is
// not present, or of an unknown source, is a no-op.
func (t *Table) Remove(p netaddr.Prefix, src Source) {
	if !src.known() {
		return
	}
	l, at := t.slot(p, 0, 0)
	if at < 0 || l.ents[at].hops[src-1] == nil {
		return
	}
	l.ents[at].hops[src-1] = nil
	t.count[src-1]--
	l.compact()
	t.epoch++
}

// Len returns the number of installed (prefix, source) routes.
func (t *Table) Len() int {
	n := 0
	for _, c := range t.count {
		n += c
	}
	return n
}

// Clear wipes every installed route of every source — the FIB of a switch
// that crashed and restarted with empty forwarding state. The live-hop memo
// (if enabled) stays enabled and is invalidated by the epoch bump.
func (t *Table) Clear() {
	t.levels = nil
	t.count = [numSources]int{}
	t.epoch++
}

// Result is a successful lookup.
type Result struct {
	Prefix  netaddr.Prefix
	NextHop NextHop
}

// Lookup finds the longest prefix containing dst whose best route has at
// least one next hop for which usable returns true, then picks one by
// hashing the flow key across the usable set. A nil usable accepts all.
//
// The shorter-prefix fallback happens here: if every next hop of the /24 is
// unusable, the /16 is consulted, then the /15 — exactly the behaviour the
// paper configures with its two static backup routes.
//
// The usable set is a bitmask over the best route's hops, memoized per
// prefix when EnableFlowCache was called. The pick is the hop at the
// (flow.Hash() mod n)-th set bit — the element hashing into the filtered
// list would select; with one usable hop (a host's default route, a
// down-link, a ToR's host route) the flow is not hashed at all.
func (t *Table) Lookup(dst netaddr.Addr, flow FlowKey, usable func(NextHop) bool) (Result, bool) {
	for li := range t.levels {
		l := &t.levels[li]
		e := l.find(dst & l.mask)
		if e == nil {
			continue
		}
		hops, live := e.best(), e.live
		if e.liveAt != t.epoch {
			live = 0
			for k, nh := range hops {
				if usable == nil || usable(nh) {
					live |= 1 << uint(k)
				}
			}
			if t.memo {
				e.live, e.liveAt = live, t.epoch
			}
		}
		if live == 0 {
			continue // fall through to a shorter prefix
		}
		k := bits.TrailingZeros64(live)
		if n := bits.OnesCount64(live); n > 1 {
			k = int(flow.Hash() % uint32(n))
			if n < len(hops) { // some hop is dead: step to the k-th live one
				for ; k > 0; k-- {
					live &= live - 1
				}
				k = bits.TrailingZeros64(live)
			}
		}
		return Result{Prefix: netaddr.PrefixOf(dst, l.bits), NextHop: hops[k]}, true
	}
	return Result{}, false
}

// Routes returns every installed route, sorted by (bits desc, addr, source)
// for stable diagnostics output.
func (t *Table) Routes() []Route { return t.routes(Connected, BGP) }

// routes lists the routes of sources lo..hi in Routes() order: levels by
// descending length, keys ascending, slots by source. The hops are copies.
func (t *Table) routes(lo, hi Source) []Route {
	out := make([]Route, 0, t.Len())
	for li := range t.levels {
		l := &t.levels[li]
		for i, key := range l.keys {
			for s, hops := range l.ents[i].hops {
				if src := Source(s + 1); hops != nil && lo <= src && src <= hi {
					out = append(out, Route{Prefix: netaddr.PrefixOf(key, l.bits), Source: src, NextHops: slices.Clone(hops)})
				}
			}
		}
	}
	return out
}

// String renders the table like a router's "show ip route".
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.Routes() {
		fmt.Fprintf(&b, "%-20v %-9s", r.Prefix, r.Source)
		for i, nh := range r.NextHops {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %v", nh)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
