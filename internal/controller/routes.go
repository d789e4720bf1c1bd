package controller

import (
	"fmt"
	"math/bits"

	"repro/internal/fib"
	"repro/internal/topo"
)

// batch is one recomputation's routes, by Controller.switches: each
// switch's route list and the hop array its routes are cut from. install
// hands the batch back to the controller, and the next computeAll refills
// it in place.
type batch struct {
	c      *Controller
	routes [][]fib.Route
	hops   [][]fib.NextHop
}

// install replaces every switch's routes in ascending NodeID order, so the
// order and any error are deterministic.
func (b *batch) install() error {
	b.c.spare = b // ReplaceSource copies what it keeps: the next computeAll may refill b
	for k, n := range b.c.switches {
		if err := b.c.nw.Table(n).ReplaceSource(fib.OSPF, b.routes[k]); err != nil {
			return fmt.Errorf("controller: bootstrap %s: %w", b.c.topo.Node(n).Name, err)
		}
	}
	return nil
}

// computeAll searches from every switch over the believed-live switch graph
// and emits its routes, one per rack subnet: a route's hops are the union
// of the first-hop masks toward the subnet's nearest origin ToRs other than
// the switch itself (dual-ToR racks anycast their subnet from both ToRs),
// ports upward (fib.HopLess order), cut from one array. It fills the batch
// the last install handed back, if there is one.
func (c *Controller) computeAll() *batch {
	c.graph.Build(c.topo, c.view, false)
	b := c.spare
	c.spare = nil // a batch still waiting for its install is never refilled
	if b == nil {
		b = &batch{c: c, routes: make([][]fib.Route, len(c.switches)), hops: make([][]fib.NextHop, len(c.switches))}
	}
	for k, src := range c.switches {
		c.search.Run(c.topo, c.graph.Rows, src, src)
		total := 0
		for _, tor := range c.tors {
			total += bits.OnesCount64(c.search.Mask[tor]) // 0 for src itself; bounds every union
		}
		if cap(b.hops[k]) < total {
			b.hops[k] = make([]fib.NextHop, 0, total)
		}
		routes, hops := b.routes[k][:0], b.hops[k][:0]
		for i := 0; i < len(c.tors); { // c.tors groups a subnet's origins
			subnet := c.topo.Node(c.tors[i]).Subnet
			best, mask := topo.Unreachable, uint64(0)
			for ; i < len(c.tors) && c.topo.Node(c.tors[i]).Subnet == subnet; i++ {
				switch tor, d := c.tors[i], c.search.Dist[c.tors[i]]; {
				case tor == src:
				case d < best:
					best, mask = d, c.search.Mask[tor]
				case d == best:
					mask |= c.search.Mask[tor]
				}
			}
			lo := len(hops)
			for m := mask; m != 0; m &= m - 1 {
				via, _ := c.topo.LinkOnPort(src, bits.TrailingZeros64(m)).Other(src)
				hops = append(hops, fib.NextHop{Port: bits.TrailingZeros64(m), Via: c.topo.Node(via).Addr})
			}
			if len(hops) > lo {
				routes = append(routes, fib.Route{Prefix: subnet, Source: fib.OSPF, NextHops: hops[lo:len(hops):len(hops)]})
			}
		}
		b.routes[k], b.hops[k] = routes, hops
	}
	return b
}
