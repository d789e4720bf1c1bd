package fib

import (
	"fmt"
	"testing"

	"repro/internal/netaddr"
)

// buildBig fills a table with the route mix an 8-port F²Tree switch holds:
// one OSPF /24 per ToR subnet plus the two static backup routes.
func buildBig(b testing.TB, subnets int) *Table {
	b.Helper()
	tbl := New()
	for i := 0; i < subnets; i++ {
		p, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 11, byte(i), 0), 24)
		if err != nil {
			b.Fatal(err)
		}
		err = tbl.Add(Route{Prefix: p, Source: OSPF, NextHops: []NextHop{
			{Port: i % 4}, {Port: (i + 1) % 4},
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, spec := range []string{"10.11.0.0/16", "10.10.0.0/15"} {
		err := tbl.Add(Route{Prefix: netaddr.MustParsePrefix(spec), Source: Static,
			NextHops: []NextHop{{Port: 10 + i}}})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkLookupHit measures the forwarding hot path: an LPM hit on the
// longest prefix.
func BenchmarkLookupHit(b *testing.B) {
	for _, subnets := range []int{18, 98, 242} { // k=8, 16, 24 ToR counts
		b.Run(fmt.Sprintf("subnets-%d", subnets), func(b *testing.B) {
			tbl := buildBig(b, subnets)
			dst := netaddr.AddrFrom4(10, 11, byte(subnets/2), 9)
			flow := FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: 9, DstPort: 9}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tbl.Lookup(dst, flow, nil); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkLookupFallback measures the fast-reroute path: the /24's hops
// are dead and the lookup falls through to the static /16.
func BenchmarkLookupFallback(b *testing.B) {
	tbl := buildBig(b, 18)
	dst := netaddr.AddrFrom4(10, 11, 9, 9)
	flow := FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: 9, DstPort: 9}
	usable := func(nh NextHop) bool { return nh.Port >= 10 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := tbl.Lookup(dst, flow, usable)
		if !ok || res.NextHop.Port < 10 {
			b.Fatal("fallback failed")
		}
	}
}

// BenchmarkLookupCachedHit measures the steady-state forwarding path with
// the flow cache on: one map probe per lookup.
func BenchmarkLookupCachedHit(b *testing.B) {
	tbl := buildBig(b, 242)
	tbl.EnableFlowCache(0)
	dst := netaddr.AddrFrom4(10, 11, 121, 9)
	flow := FlowKey{Src: 1, Dst: dst, Proto: 17, SrcPort: 9, DstPort: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(dst, flow, nil); !ok {
			b.Fatal("miss")
		}
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

// TestLookupNoAlloc holds the three lookup paths the benchmarks above time
// to their 0 allocs/op budget, on the same tables.
func TestLookupNoAlloc(t *testing.T) {
	cached := buildBig(t, 242)
	cached.EnableFlowCache(0)
	cases := []struct {
		name   string
		tbl    *Table
		dst    netaddr.Addr
		usable func(NextHop) bool
	}{
		{"hit", buildBig(t, 242), netaddr.AddrFrom4(10, 11, 121, 9), nil},
		{"fallback", buildBig(t, 18), netaddr.AddrFrom4(10, 11, 9, 9), func(nh NextHop) bool { return nh.Port >= 10 }},
		{"cached hit", cached, netaddr.AddrFrom4(10, 11, 121, 9), nil},
	}
	for _, c := range cases {
		flow := FlowKey{Src: 1, Dst: c.dst, Proto: 17, SrcPort: 9, DstPort: 9}
		lookup := func() {
			if _, ok := c.tbl.Lookup(c.dst, flow, c.usable); !ok {
				t.Fatalf("%s: miss", c.name)
			}
		}
		lookup() // fill the flow cache where there is one
		if allocs := testing.AllocsPerRun(200, lookup); allocs > 0 {
			t.Errorf("%s: lookup allocates %.2f per call, want 0", c.name, allocs)
		}
	}
}
