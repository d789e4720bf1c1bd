package fib

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netaddr"
)

// ospfRoutes lists the learned routes of a switch in a fabric of the given
// number of ToR subnets: one /24 each, over two of four uplinks.
func ospfRoutes(tb testing.TB, subnets int) []Route {
	tb.Helper()
	routes := make([]Route, subnets)
	for i := range routes {
		p, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 11, byte(i), 0), 24)
		if err != nil {
			tb.Fatal(err)
		}
		routes[i] = Route{Prefix: p, Source: OSPF, NextHops: []NextHop{{Port: i % 4}, {Port: 4 + i%4}}}
	}
	return routes
}

// buildBig fills a table with the route mix an F²Tree ToR holds: one OSPF
// /24 per ToR subnet, four connected /32 host routes and the two static
// backup routes.
func buildBig(tb testing.TB, subnets int) *Table {
	tb.Helper()
	tbl := New()
	for h := 0; h < 4; h++ {
		err := tbl.Add(Route{Prefix: netaddr.HostPrefix(netaddr.AddrFrom4(10, 11, 0, byte(2+h))), Source: Connected,
			NextHops: []NextHop{{Port: 12 + h}}})
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i, spec := range []string{"10.11.0.0/16", "10.10.0.0/15"} {
		err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix(spec), Source: Static,
			NextHops: []NextHop{{Port: 10 + i}}})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.ReplaceSource(OSPF, ospfRoutes(tb, subnets)); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// spreadFlows returns 1,024 seeded flows to hosts spread over the subnets.
// Benchmarks walk them instead of repeating one key: one key hides the
// branch and cache behaviour of the probe (23 against 37 ns memoized).
func spreadFlows(subnets int) []FlowKey {
	rng := rand.New(rand.NewSource(42))
	flows := make([]FlowKey, 1024)
	for i := range flows {
		dst := netaddr.AddrFrom4(10, 11, byte(rng.Intn(subnets)), byte(2+rng.Intn(200)))
		flows[i] = FlowKey{Src: netaddr.AddrFrom4(10, 11, 0, 2), Dst: dst, Proto: 6,
			SrcPort: uint16(32768 + rng.Intn(28000)), DstPort: 5000}
	}
	return flows
}

// BenchmarkFIB measures the table the way a switch uses it, on the table of
// a ToR in an N-port F²Tree (18 subnets at N=8, 98 at N=16): lookups of
// spread flows by longest-prefix match (lookup-spread), through the live-hop
// memo (lookup-memo) and falling through dead /24 hops to the static /16
// (fallthrough); a reconvergence installing the route set the table already
// holds (install-same) or one with a single changed route
// (install-onechange); and building the table from nothing (bootstrap).
func BenchmarkFIB(b *testing.B) {
	sizes := []struct{ n, subnets int }{{8, 18}, {16, 98}}
	lookups := func(memo bool, usable func(NextHop) bool) func(*testing.B, int) {
		return func(b *testing.B, subnets int) {
			tbl, flows := buildBig(b, subnets), spreadFlows(subnets)
			if memo {
				tbl.EnableFlowCache(0)
			}
			tbl.Lookup(flows[0].Dst, flows[0], usable) // builds the index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := flows[i%len(flows)]
				if _, ok := tbl.Lookup(f.Dst, f, usable); !ok {
					b.Fatal("miss")
				}
			}
		}
	}
	install := func(change bool) func(*testing.B, int) {
		return func(b *testing.B, subnets int) {
			tbl, routes := buildBig(b, subnets), ospfRoutes(b, subnets)
			flip := [2][]NextHop{routes[subnets/2].NextHops, {{Port: 2}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if change {
					routes[subnets/2].NextHops = flip[(i+1)%2]
				}
				if err := tbl.ReplaceSource(OSPF, routes); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		name string
		run  func(*testing.B, int)
	}{
		{"lookup-spread", lookups(false, nil)},
		{"lookup-memo", lookups(true, allUsable)},
		{"fallthrough", lookups(true, func(nh NextHop) bool { return nh.Port >= 10 })},
		{"install-same", install(false)},
		{"install-onechange", install(true)},
		{"bootstrap", func(b *testing.B, subnets int) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buildBig(b, subnets).Len() != subnets+6 {
					b.Fatal("short table")
				}
			}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for _, size := range sizes {
				b.Run(fmt.Sprintf("N=%d", size.n), func(b *testing.B) { c.run(b, size.subnets) })
			}
		})
	}
}

// BenchmarkFlowKeyHash measures the ECMP hash.
func BenchmarkFlowKeyHash(b *testing.B) {
	flow := FlowKey{Src: 0x0a0b0001, Dst: 0x0a0b0502, Proto: 6, SrcPort: 33001, DstPort: 80}
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		flow.SrcPort = uint16(i)
		sink ^= flow.Hash()
	}
	_ = sink
}

// TestLookupNoAlloc holds the lookup paths BenchmarkFIB times to their
// 0 allocs/op budget, on the same tables.
func TestLookupNoAlloc(t *testing.T) {
	memo := func(subnets int) *Table {
		tbl := buildBig(t, subnets)
		tbl.EnableFlowCache(0)
		return tbl
	}
	backupsOnly := func(nh NextHop) bool { return nh.Port >= 10 }
	invalidated := memo(242)
	cases := []struct {
		name   string
		tbl    *Table
		dst    netaddr.Addr
		usable func(NextHop) bool
		before func()
	}{
		{"hit", buildBig(t, 242), netaddr.AddrFrom4(10, 11, 121, 9), nil, nil},
		{"fallback", buildBig(t, 18), netaddr.AddrFrom4(10, 11, 9, 9), backupsOnly, nil},
		{"memoized hit", memo(242), netaddr.AddrFrom4(10, 11, 121, 9), nil, nil},
		{"memoized after invalidate", invalidated, netaddr.AddrFrom4(10, 11, 121, 9), allUsable, invalidated.InvalidateFlowCache},
		{"fall-through with memo", memo(18), netaddr.AddrFrom4(10, 11, 9, 9), backupsOnly, nil},
	}
	for _, c := range cases {
		flow := FlowKey{Src: 1, Dst: c.dst, Proto: 17, SrcPort: 9, DstPort: 9}
		lookup := func() {
			if c.before != nil {
				c.before()
			}
			if _, ok := c.tbl.Lookup(c.dst, flow, c.usable); !ok {
				t.Fatalf("%s: miss", c.name)
			}
		}
		lookup() // build the index, fill the memo where there is one
		if allocs := testing.AllocsPerRun(200, lookup); allocs > 0 {
			t.Errorf("%s: lookup allocates %.2f per call, want 0", c.name, allocs)
		}
	}
}

// TestInstallAllocBudget holds the in-place install to its allocation
// budget on a 98-route table: nothing for the set the table already holds,
// one array for the hops of however many routes changed, and four for a
// first install (the level, its two arrays and the hop array).
func TestInstallAllocBudget(t *testing.T) {
	const subnets = 98
	tbl, routes := buildBig(t, subnets), ospfRoutes(t, subnets)
	same := testing.AllocsPerRun(100, func() {
		if err := tbl.ReplaceSource(OSPF, routes); err != nil {
			t.Fatal(err)
		}
	})
	if same != 0 {
		t.Errorf("same-set install allocates %.1f, want 0", same)
	}
	alt, round := [2][]NextHop{{{Port: 1}}, {{Port: 2}, {Port: 3}}}, 0
	changed := testing.AllocsPerRun(100, func() {
		round++
		for k := 0; k < 5; k++ { // five routes change hops each round
			routes[10*k].NextHops = alt[round%2]
		}
		if err := tbl.ReplaceSource(OSPF, routes); err != nil {
			t.Fatal(err)
		}
	})
	if changed != 1 {
		t.Errorf("install of 5 changed routes allocates %.1f, want 1", changed)
	}
	empty := make([]*Table, 0, 21) // AllocsPerRun(20, ...) calls 21 times
	for len(empty) < cap(empty) {
		empty = append(empty, New())
	}
	first := testing.AllocsPerRun(20, func() {
		fresh := empty[len(empty)-1]
		empty = empty[:len(empty)-1]
		if err := fresh.ReplaceSource(OSPF, routes); err != nil {
			t.Fatal(err)
		}
	})
	if first != 4 {
		t.Errorf("first install of %d routes allocates %.1f, want 4", subnets, first)
	}
}
