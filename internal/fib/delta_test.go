package fib

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/netaddr"
)

func routesEqual(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Source != b[i].Source || !slices.Equal(a[i].NextHops, b[i].NextHops) {
			return false
		}
	}
	return true
}

// TestReplaceSourceMatchesRebuild is the in-place install's equivalence
// gate: one table lives through 200 generations of OSPF route lists — with
// withdrawn, new, changed, unchanged and duplicated prefixes, hop lists in
// and out of port order, static and BGP routes beside them — and after
// every ReplaceSource it must list, count and look up exactly like a table
// built from nothing by Add.
func TestReplaceSourceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	others := []Route{
		{Prefix: netaddr.MustParsePrefix("10.0.0.0/15"), Source: Static, NextHops: []NextHop{{Port: 9}}},
		{Prefix: netaddr.MustParsePrefix("10.3.0.0/24"), Source: Static, NextHops: []NextHop{{Port: 8}}},
		{Prefix: netaddr.MustParsePrefix("10.5.0.0/24"), Source: BGP, NextHops: []NextHop{{Port: 7}, {Port: 8}}},
	}
	gen := func() []Route {
		var routes []Route
		for i := 0; i < 12; i++ {
			for n := rng.Intn(3); n > 0 && (n == 1 || rng.Intn(4) == 0); n-- { // withdrawn, once, sometimes twice
				bits := 24
				if i%4 == 3 {
					bits = 25
				}
				hops := []NextHop{{Port: rng.Intn(4), Via: netaddr.AddrFrom4(10, 99, byte(i), 1)}}
				if rng.Intn(2) == 0 {
					hops = append(hops, NextHop{Port: 4 + rng.Intn(4), Via: netaddr.AddrFrom4(10, 99, byte(i), 2)})
				}
				if rng.Intn(3) == 0 {
					slices.Reverse(hops)
				}
				routes = append(routes, Route{Prefix: netaddr.PrefixOf(netaddr.AddrFrom4(10, byte(i), 0, 0), bits), NextHops: hops})
			}
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
		}
		return routes
	}
	inPlace := New()
	inPlace.EnableFlowCache(0)
	for _, r := range others {
		if err := inPlace.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	var routes []Route
	for round := 0; round < 200; round++ {
		if round%5 != 4 { // every fifth round reinstalls the previous list
			routes = gen()
		}
		if err := inPlace.ReplaceSource(OSPF, routes); err != nil {
			t.Fatal(err)
		}
		rebuilt := New()
		for _, r := range append(slices.Clone(others), routes...) {
			if r.Source == 0 {
				r.Source = OSPF
			}
			if err := rebuilt.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if !routesEqual(inPlace.Routes(), rebuilt.Routes()) {
			t.Fatalf("round %d: tables diverged\nin place:\n%s\nrebuilt:\n%s", round, inPlace, rebuilt)
		}
		if inPlace.Len() != rebuilt.Len() {
			t.Fatalf("round %d: Len %d != %d", round, inPlace.Len(), rebuilt.Len())
		}
		dead := rng.Intn(10)
		usable := func(nh NextHop) bool { return nh.Port != dead }
		inPlace.InvalidateFlowCache()
		for k := 0; k < 64; k++ {
			dst := netaddr.AddrFrom4(10, byte(rng.Intn(13)), 0, byte(rng.Intn(256)))
			flow := FlowKey{Src: 1, Dst: dst, Proto: 6, SrcPort: uint16(k), DstPort: 80}
			got, okGot := inPlace.Lookup(dst, flow, usable)
			want, okWant := rebuilt.Lookup(dst, flow, usable)
			if got != want || okGot != okWant {
				t.Fatalf("round %d dst %v: in place (%+v, %v), rebuilt (%+v, %v)", round, dst, got, okGot, want, okWant)
			}
		}
	}
}

// TestReplaceSourceDoesNotRetain pins the contract a control plane reusing
// its route lists rests on: ReplaceSource copies what it keeps, so
// overwriting the prefixes and next hops of an installed list — both routes
// with new hops and unchanged ones — changes neither SourceRoutes nor a
// Lookup.
func TestReplaceSourceDoesNotRetain(t *testing.T) {
	tbl := New()
	tbl.EnableFlowCache(0)
	hops := []NextHop{{Port: 1, Via: 11}, {Port: 2, Via: 12}, {Port: 3, Via: 13}, {Port: 4, Via: 14}}
	list := func() []Route {
		return []Route{
			{Prefix: netaddr.MustParsePrefix("10.1.0.0/24"), NextHops: hops[0:2:2]},
			{Prefix: netaddr.MustParsePrefix("10.2.0.0/24"), NextHops: hops[2:4:4]},
			{Prefix: netaddr.MustParsePrefix("10.0.0.0/15"), NextHops: hops[1:3:3]},
		}
	}
	dsts := []netaddr.Addr{
		netaddr.MustParseAddr("10.1.0.5"), netaddr.MustParseAddr("10.2.0.5"), netaddr.MustParseAddr("10.0.9.5"),
	}
	lookups := func() []Result {
		var out []Result
		for k, dst := range dsts {
			for port := 0; port < 4; port++ { // port 0 fails no hop; port p > 0 fails hop p
				res, _ := tbl.Lookup(dst, FlowKey{Dst: dst, SrcPort: uint16(k)}, func(nh NextHop) bool { return nh.Port != port })
				out = append(out, res)
			}
		}
		return out
	}
	for round, routes := range [][]Route{list(), list()} { // new routes, then an unchanged reinstall
		if err := tbl.ReplaceSource(OSPF, routes); err != nil {
			t.Fatal(err)
		}
		wantRoutes, wantLookups := tbl.SourceRoutes(OSPF), lookups()
		for k := range routes {
			routes[k].Prefix = netaddr.MustParsePrefix("10.9.0.0/24")
		}
		for k := range hops {
			hops[k] = NextHop{Port: 9, Via: 99}
		}
		tbl.InvalidateFlowCache()
		if got := tbl.SourceRoutes(OSPF); !routesEqual(got, wantRoutes) {
			t.Fatalf("round %d: overwriting the installed list changed the table:\nhave %v\nwant %v", round, got, wantRoutes)
		}
		if got := lookups(); !slices.Equal(got, wantLookups) {
			t.Fatalf("round %d: overwriting the installed list changed lookups:\nhave %v\nwant %v", round, got, wantLookups)
		}
		for k := range hops {
			hops[k] = NextHop{Port: k + 1, Via: netaddr.Addr(11 + k)}
		}
	}
}

// TestReplaceSourceUnchangedStillInvalidates pins the epoch contract: an
// install event must invalidate memoized lookups even when no route
// changed.
func TestReplaceSourceUnchangedStillInvalidates(t *testing.T) {
	tbl := New()
	tbl.EnableFlowCache(16)
	dst := netaddr.MustParseAddr("10.1.0.5")
	flow := FlowKey{Dst: dst, SrcPort: 1}
	mustAdd(t, tbl, "10.1.0.0/24", OSPF, NextHop{Port: 1}, NextHop{Port: 2})
	res, ok := tbl.Lookup(dst, flow, allUsable)
	if !ok {
		t.Fatal("lookup failed")
	}
	// The live set is memoized; now make the picked hop unusable without
	// telling the table. Without an epoch bump the stale pick would return.
	dead := res.NextHop.Port
	if err := tbl.ReplaceSource(OSPF, tbl.SourceRoutes(OSPF)); err != nil {
		t.Fatal(err)
	}
	res2, ok := tbl.Lookup(dst, flow, func(nh NextHop) bool { return nh.Port != dead })
	if !ok || res2.NextHop.Port == dead {
		t.Fatalf("lookup after a same-set install = %+v ok=%v; memo not invalidated", res2, ok)
	}
}

// TestReplaceSourceRejectedLeavesTableUntouched: a bad route anywhere in
// the list fails the call before a single route of the source is replaced.
func TestReplaceSourceRejectedLeavesTableUntouched(t *testing.T) {
	tbl := New()
	mustAdd(t, tbl, "10.1.0.0/24", OSPF, NextHop{Port: 1})
	mustAdd(t, tbl, "10.2.0.0/24", OSPF, NextHop{Port: 2})
	mustAdd(t, tbl, "10.0.0.0/15", Static, NextHop{Port: 9})
	before := tbl.Routes()
	err := tbl.ReplaceSource(OSPF, []Route{
		{Prefix: netaddr.MustParsePrefix("10.3.0.0/24"), NextHops: []NextHop{{Port: 3}}},
		{Prefix: netaddr.MustParsePrefix("10.4.0.0/24")}, // no next hops
		{Prefix: netaddr.MustParsePrefix("10.1.0.0/24"), NextHops: []NextHop{{Port: 4}}},
	})
	if err == nil {
		t.Fatal("a route without next hops was accepted")
	}
	if after := tbl.Routes(); !routesEqual(before, after) || tbl.Len() != 3 {
		t.Fatalf("rejected install changed the table:\nbefore %v\nafter  %v", before, after)
	}
}

// TestUnknownSourceRejected: sources index fixed slots, so one outside
// Connected..BGP is an error to install and nothing to remove.
func TestUnknownSourceRejected(t *testing.T) {
	tbl := New()
	mustAdd(t, tbl, "10.1.0.0/24", OSPF, NextHop{Port: 1})
	p := netaddr.MustParsePrefix("10.1.0.0/24")
	for _, src := range []Source{0, -1, BGP + 1} {
		if err := tbl.Add(Route{Prefix: p, Source: src, NextHops: []NextHop{{Port: 2}}}); err == nil {
			t.Errorf("Add accepted source %d", src)
		}
		if err := tbl.ReplaceSource(src, []Route{{Prefix: p, NextHops: []NextHop{{Port: 2}}}}); err == nil {
			t.Errorf("ReplaceSource accepted source %d", src)
		}
		if err := tbl.ReplaceSource(src, nil); err == nil {
			t.Errorf("ReplaceSource accepted source %d with no routes", src)
		}
		tbl.Remove(p, src)
		if got := tbl.SourceRoutes(src); len(got) != 0 {
			t.Errorf("SourceRoutes(%d) = %v", src, got)
		}
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want the one OSPF route", tbl.Len())
	}
}

// TestAddRejectsWiderThanLiveMask: a lookup keeps the usable subset of a
// route's hops in a 64-bit mask; the 65th hop is an error that names the
// prefix and the count.
func TestAddRejectsWiderThanLiveMask(t *testing.T) {
	tbl := New()
	hops := make([]NextHop, 65)
	for i := range hops {
		hops[i] = NextHop{Port: i}
	}
	p := netaddr.MustParsePrefix("10.7.0.0/16")
	if err := tbl.Add(Route{Prefix: p, Source: OSPF, NextHops: hops[:64]}); err != nil {
		t.Fatalf("64 hops rejected: %v", err)
	}
	for k := 0; k < 64; k++ { // every one of the 64 can be the only live hop
		res, ok := tbl.Lookup(p.Addr(), FlowKey{}, func(nh NextHop) bool { return nh.Port == k })
		if !ok || res.NextHop.Port != k {
			t.Fatalf("only port %d live: got %+v, %v", k, res, ok)
		}
	}
	err := tbl.Add(Route{Prefix: p, Source: OSPF, NextHops: hops})
	if err == nil || !strings.Contains(err.Error(), p.String()) || !strings.Contains(err.Error(), "65") {
		t.Fatalf("65 hops: err = %v, want one naming %v and 65", err, p)
	}
	if err := tbl.ReplaceSource(OSPF, []Route{{Prefix: p, NextHops: hops}}); err == nil {
		t.Fatal("ReplaceSource accepted 65 hops")
	}
	if got := tbl.Routes(); len(got) != 1 || len(got[0].NextHops) != 64 {
		t.Fatalf("rejected routes changed the table: %v", got)
	}
}

func TestSourceRoutesFiltersBySource(t *testing.T) {
	tbl := New()
	mustAdd(t, tbl, "10.1.0.0/24", OSPF, NextHop{Port: 1})
	mustAdd(t, tbl, "10.0.0.0/16", Static, NextHop{Port: 2})
	got := tbl.SourceRoutes(OSPF)
	if len(got) != 1 || got[0].Prefix.String() != "10.1.0.0/24" {
		t.Fatalf("SourceRoutes(OSPF) = %+v", got)
	}
}
