package fib

import (
	"testing"

	"repro/internal/netaddr"
)

// cacheFixture installs the paper's route shape: an OSPF /24 with two ECMP
// next hops (ports 0, 1) over a static /16 backup (port 10).
func cacheFixture(t *testing.T) (*Table, netaddr.Addr, FlowKey) {
	t.Helper()
	tbl := New()
	if err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix("10.11.5.0/24"), Source: OSPF,
		NextHops: []NextHop{{Port: 0}, {Port: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix("10.11.0.0/16"), Source: Static,
		NextHops: []NextHop{{Port: 10}}}); err != nil {
		t.Fatal(err)
	}
	dst := netaddr.MustParseAddr("10.11.5.9")
	flow := FlowKey{Src: netaddr.MustParseAddr("10.11.0.2"), Dst: dst,
		Proto: 17, SrcPort: 40000, DstPort: 9}
	return tbl, dst, flow
}

// TestFlowCacheFallbackOnInvalidate replays the paper's failure sequence
// against the cache: the /24's next hops die, the caller invalidates, and
// the next lookup must fall back to the /16 backup route — then recover to
// the /24 when the hops heal.
func TestFlowCacheFallbackOnInvalidate(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(0)
	dead := map[int]bool{}
	usable := func(nh NextHop) bool { return !dead[nh.Port] }

	res, ok := tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("initial lookup = %+v, %v; want /24 hit", res, ok)
	}
	// Second lookup is served from cache (same answer).
	res2, ok := tbl.Lookup(dst, flow, usable)
	if !ok || res2 != res {
		t.Fatalf("cached lookup = %+v, want %+v", res2, res)
	}

	// Both /24 next hops die; the caller fulfills its contract.
	dead[0], dead[1] = true, true
	tbl.InvalidateFlowCache()
	res, ok = tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 16 || res.NextHop.Port != 10 {
		t.Fatalf("post-failure lookup = %+v, %v; want /16 backup via port 10", res, ok)
	}

	// Link heals: back to the /24.
	dead[0], dead[1] = false, false
	tbl.InvalidateFlowCache()
	res, ok = tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("post-heal lookup = %+v, %v; want /24 again", res, ok)
	}
}

// TestFlowCacheStaleWithoutInvalidate pins the caller contract from the
// other side: if the usable predicate's state changes and nobody calls
// InvalidateFlowCache, the cache keeps serving the old result. This is the
// sharp edge network.Network must (and does) handle on every believed
// port-state transition.
func TestFlowCacheStaleWithoutInvalidate(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(0)
	dead := map[int]bool{}
	usable := func(nh NextHop) bool { return !dead[nh.Port] }
	if _, ok := tbl.Lookup(dst, flow, usable); !ok {
		t.Fatal("warm-up lookup missed")
	}
	dead[0], dead[1] = true, true
	res, ok := tbl.Lookup(dst, flow, usable)
	if !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("expected the documented stale /24 answer, got %+v, %v", res, ok)
	}
}

// TestFlowCacheRouteMutationInvalidates checks the automatic half of the
// epoch rule: Add/Remove/ReplaceSource must invalidate without any call
// from the owner — including when the prefix stays and only its winning
// source changes, so the memoized live set would index another hop list.
func TestFlowCacheRouteMutationInvalidates(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(0)
	if res, ok := tbl.Lookup(dst, flow, nil); !ok || res.Prefix.Bits() != 24 {
		t.Fatalf("warm-up = %+v, %v", res, ok)
	}
	tbl.Remove(netaddr.MustParsePrefix("10.11.5.0/24"), OSPF)
	res, ok := tbl.Lookup(dst, flow, nil)
	if !ok || res.Prefix.Bits() != 16 {
		t.Fatalf("after Remove = %+v, %v; want /16", res, ok)
	}
	if err := tbl.ReplaceSource(OSPF, []Route{{Prefix: netaddr.MustParsePrefix("10.11.5.0/24"),
		NextHops: []NextHop{{Port: 2}}}}); err != nil {
		t.Fatal(err)
	}
	res, ok = tbl.Lookup(dst, flow, nil)
	if !ok || res.Prefix.Bits() != 24 || res.NextHop.Port != 2 {
		t.Fatalf("after ReplaceSource = %+v, %v; want /24 via port 2", res, ok)
	}

	// Shadowed source: a static /24 takes the prefix over from OSPF's two
	// hops and is withdrawn again. Port 0 is dead throughout, so OSPF's live
	// set is {port 1}; a live set memoized for the other source's hop list
	// would pick port 0 (or index past the static route's single hop).
	tbl, dst, flow = cacheFixture(t)
	tbl.EnableFlowCache(0)
	usable := func(nh NextHop) bool { return nh.Port != 0 }
	if res, ok := tbl.Lookup(dst, flow, usable); !ok || res.NextHop.Port != 1 {
		t.Fatalf("OSPF warm-up = %+v, %v; want port 1", res, ok)
	}
	mustAdd(t, tbl, "10.11.5.0/24", Static, NextHop{Port: 5})
	if res, ok := tbl.Lookup(dst, flow, usable); !ok || res.NextHop.Port != 5 {
		t.Fatalf("after the static Add = %+v, %v; want the static /24 via port 5", res, ok)
	}
	tbl.Remove(netaddr.MustParsePrefix("10.11.5.0/24"), Static)
	if res, ok := tbl.Lookup(dst, flow, usable); !ok || res.Prefix.Bits() != 24 || res.NextHop.Port != 1 {
		t.Fatalf("after removing the static /24 = %+v, %v; want OSPF's /24 via port 1", res, ok)
	}
}

// TestFlowCacheCapacityReset looks up more flows than the capacity asked
// for: the per-prefix memo has none to outgrow, and every lookup stays
// correct.
func TestFlowCacheCapacityReset(t *testing.T) {
	tbl, dst, flow := cacheFixture(t)
	tbl.EnableFlowCache(8)
	for i := 0; i < 100; i++ {
		f := flow
		f.SrcPort = uint16(40000 + i)
		res, ok := tbl.Lookup(dst, f, nil)
		if !ok || res.Prefix.Bits() != 24 {
			t.Fatalf("lookup %d = %+v, %v", i, res, ok)
		}
	}
}

// TestLookupMatchesUncached cross-checks cached and uncached tables over a
// spread of destinations and failure states.
func TestLookupMatchesUncached(t *testing.T) {
	plain, _, _ := cacheFixture(t)
	cachedTbl, _, _ := cacheFixture(t)
	cachedTbl.EnableFlowCache(16)
	for _, deadPorts := range []map[int]bool{nil, {0: true}, {0: true, 1: true}} {
		usable := func(nh NextHop) bool { return deadPorts == nil || !deadPorts[nh.Port] }
		plain.InvalidateFlowCache() // harmless on an uncached table
		cachedTbl.InvalidateFlowCache()
		for i := 0; i < 16; i++ {
			dst := netaddr.AddrFrom4(10, 11, byte(i%8), byte(i))
			f := FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: uint16(i), DstPort: 9}
			r1, ok1 := plain.Lookup(dst, f, usable)
			// Look up twice so the second hit comes from the cache.
			cachedTbl.Lookup(dst, f, usable)
			r2, ok2 := cachedTbl.Lookup(dst, f, usable)
			if ok1 != ok2 || r1 != r2 {
				t.Fatalf("dst %v dead=%v: plain=(%+v,%v) cached=(%+v,%v)",
					dst, deadPorts, r1, ok1, r2, ok2)
			}
		}
	}
}
