package fib

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netaddr"
)

// refTable is a brute-force reference implementation: a flat list of
// routes, scanned linearly on lookup.
type refTable struct {
	routes []Route
}

func (r *refTable) add(rt Route) {
	for i := range r.routes {
		if r.routes[i].Prefix == rt.Prefix && r.routes[i].Source == rt.Source {
			r.routes[i] = rt
			return
		}
	}
	r.routes = append(r.routes, rt)
}

func (r *refTable) remove(p netaddr.Prefix, src Source) {
	out := r.routes[:0]
	for _, rt := range r.routes {
		if rt.Prefix == p && rt.Source == src {
			continue
		}
		out = append(out, rt)
	}
	r.routes = out
}

func (r *refTable) replaceSource(src Source, rs []Route) {
	out := r.routes[:0]
	for _, rt := range r.routes {
		if rt.Source != src {
			out = append(out, rt)
		}
	}
	r.routes = out
	for _, rt := range rs {
		rt.Source = src
		r.add(rt)
	}
}

// sourceRoutes returns copies of the routes src holds, in insertion order.
func (r *refTable) sourceRoutes(src Source) []Route {
	var out []Route
	for _, rt := range r.routes {
		if rt.Source == src {
			out = append(out, rt)
		}
	}
	return out
}

// portSorted returns the hops stably sorted by port: the order a table
// keeps them in, whatever order the route listed them in.
func portSorted(hops []NextHop) []NextHop {
	out := append([]NextHop(nil), hops...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Port < out[j].Port })
	return out
}

// sorted returns the model's routes the way Table.Routes() orders them:
// prefix length descending, then address, then source, hops by port.
func (r *refTable) sorted() []Route {
	out := make([]Route, len(r.routes))
	for i, rt := range r.routes {
		out[i] = Route{Prefix: rt.Prefix, Source: rt.Source, NextHops: portSorted(rt.NextHops)}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return a.Prefix.Bits() > b.Prefix.Bits()
		}
		if a.Prefix.Addr() != b.Prefix.Addr() {
			return a.Prefix.Addr() < b.Prefix.Addr()
		}
		return a.Source < b.Source
	})
	return out
}

// lookup mirrors Table.Lookup semantics: longest prefix whose best-source
// route has a usable hop, and among that route's port-sorted usable hops the
// one the flow hashes to.
func (r *refTable) lookup(dst netaddr.Addr, flow FlowKey, usable func(NextHop) bool) (Result, bool) {
	for bits := 32; bits >= 0; bits-- {
		p, err := netaddr.PrefixFrom(dst, bits)
		if err != nil {
			continue
		}
		var bestRt *Route
		for i := range r.routes {
			rt := &r.routes[i]
			if rt.Prefix != p {
				continue
			}
			if bestRt == nil || rt.Source < bestRt.Source {
				bestRt = rt
			}
		}
		if bestRt == nil {
			continue
		}
		var live []NextHop
		for _, nh := range portSorted(bestRt.NextHops) {
			if usable == nil || usable(nh) {
				live = append(live, nh)
			}
		}
		if len(live) > 0 {
			return Result{Prefix: p, NextHop: live[int(flow.Hash()%uint32(len(live)))]}, true
		}
	}
	return Result{}, false
}

// TestTableAgainstReferenceModel drives random operation sequences through
// both implementations and compares every lookup — matched prefix and
// picked next hop — and, after every mutation, the full route listing.
// Every trial runs twice over the same operations: plain, and with the
// lookup memo enabled and invalidated only when the dead port changes,
// which is the contract network.Network keeps. The dead port moves on one
// lookup batch in four, so most batches read memos that only the table's
// own epoch bumps can have refreshed. Every mutation that changes the
// route listing must also advance the epoch — the documented contract,
// checked directly because a Clear that skipped it is invisible to
// lookups (the entries made after it start with no memo).
func TestTableAgainstReferenceModel(t *testing.T) {
	// A small universe so prefixes collide often.
	addrs := []netaddr.Addr{
		netaddr.MustParseAddr("10.11.0.0"),
		netaddr.MustParseAddr("10.11.1.0"),
		netaddr.MustParseAddr("10.11.0.128"),
		netaddr.MustParseAddr("10.10.0.0"),
		netaddr.MustParseAddr("10.12.3.0"),
	}
	bitsChoices := []int{8, 15, 16, 24, 25, 32}
	sources := []Source{Connected, Static, OSPF, BGP}

	for trial := 0; trial < 50; trial++ {
		for _, memo := range []bool{false, true} {
			rng := rand.New(rand.NewSource(99 + int64(trial)))
			randomPrefix := func() netaddr.Prefix {
				p, err := netaddr.PrefixFrom(addrs[rng.Intn(len(addrs))], bitsChoices[rng.Intn(len(bitsChoices))])
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			randomHops := func() []NextHop {
				n := 1 + rng.Intn(4)
				hops := make([]NextHop, 0, n)
				seen := map[int]bool{}
				for len(hops) < n {
					port := rng.Intn(8)
					if seen[port] {
						continue
					}
					seen[port] = true
					hops = append(hops, NextHop{Port: port, Via: netaddr.Addr(port + 1)})
				}
				return hops
			}

			tbl := New()
			if memo {
				tbl.EnableFlowCache(0)
			}
			ref := &refTable{}
			deadPort := -1
			for op := 0; op < 200; op++ {
				mutated, epoch, before := true, tbl.epoch, ref.sorted()
				switch rng.Intn(12) {
				case 0, 1, 2, 3, 4: // add
					rt := Route{Prefix: randomPrefix(), Source: sources[rng.Intn(len(sources))], NextHops: randomHops()}
					if err := tbl.Add(rt); err != nil {
						t.Fatal(err)
					}
					ref.add(rt)
				case 5, 6: // remove
					p, src := randomPrefix(), sources[rng.Intn(len(sources))]
					tbl.Remove(p, src)
					ref.remove(p, src)
				case 7: // replace a source wholesale
					src := sources[rng.Intn(len(sources))]
					n := rng.Intn(4)
					rs := make([]Route, 0, n)
					for j := 0; j < n; j++ {
						rs = append(rs, Route{Prefix: randomPrefix(), NextHops: randomHops()})
					}
					if err := tbl.ReplaceSource(src, rs); err != nil {
						t.Fatal(err)
					}
					ref.replaceSource(src, rs)
				case 8: // reinstall the set a source already holds
					src := sources[rng.Intn(len(sources))]
					if err := tbl.ReplaceSource(src, ref.sourceRoutes(src)); err != nil {
						t.Fatal(err)
					}
				case 9: // crash: every route of every source goes
					if rng.Intn(4) == 0 {
						tbl.Clear()
						ref.routes = nil
					}
				default: // lookups with a random usability mask
					mutated = false
					if rng.Intn(4) == 0 {
						if p := rng.Intn(10); p != deadPort { // ports ≥ 8 never exist → all usable
							deadPort = p
							tbl.InvalidateFlowCache()
						}
					}
					usable := func(nh NextHop) bool { return nh.Port != deadPort }
					for _, base := range addrs {
						dst := base + netaddr.Addr(rng.Intn(256))
						// Twice, so that with the memo on the second answer is a memoized one.
						for rep := 0; rep < 2; rep++ {
							flow := FlowKey{Dst: dst, SrcPort: uint16(op), DstPort: uint16(rep * rng.Intn(4))}
							got, okGot := tbl.Lookup(dst, flow, usable)
							want, okWant := ref.lookup(dst, flow, usable)
							if okGot != okWant || got != want {
								t.Fatalf("trial %d memo=%v op %d dst %v dead port %d: got (%+v, %v) want (%+v, %v)\ntable:\n%s",
									trial, memo, op, dst, deadPort, got, okGot, want, okWant, tbl.String())
							}
						}
					}
				}
				if !mutated {
					continue
				}
				want := ref.sorted()
				if got := tbl.Routes(); !routesEqual(got, want) {
					t.Fatalf("trial %d memo=%v op %d: Routes() diverged from the model\nhave %v\nwant %v", trial, memo, op, got, want)
				}
				if tbl.epoch == epoch && !routesEqual(before, want) {
					t.Fatalf("trial %d memo=%v op %d: the route set changed without an epoch bump", trial, memo, op)
				}
				if tbl.Len() != len(ref.routes) {
					t.Fatalf("trial %d memo=%v op %d: Len=%d ref=%d", trial, memo, op, tbl.Len(), len(ref.routes))
				}
			}
		}
	}
}
