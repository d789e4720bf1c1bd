package controller

import (
	"fmt"
	"math/bits"

	"repro/internal/fib"
)

// batch is one recomputation's routes, by Controller.switches.
type batch struct {
	c      *Controller
	routes [][]fib.Route
}

// install replaces every switch's routes in ascending NodeID order, so the
// order and any error are deterministic.
func (b *batch) install() error {
	for k, n := range b.c.switches {
		if err := b.c.nw.Table(n).ReplaceSource(fib.OSPF, b.routes[k]); err != nil {
			return fmt.Errorf("controller: bootstrap %s: %w", b.c.topo.Node(n).Name, err)
		}
	}
	return nil
}

// computeAll searches from every switch over the believed-live switch graph
// and emits its routes to every other ToR subnet: a route's hops are its
// first-hop mask's ports upward (fib.HopLess order), cut from one array.
func (c *Controller) computeAll() *batch {
	c.graph.Build(c.topo, c.view, false)
	b := &batch{c: c, routes: make([][]fib.Route, len(c.switches))}
	for k, src := range c.switches {
		c.search.Run(c.topo, c.graph.Rows, src, src)
		total := 0
		for _, tor := range c.tors {
			total += bits.OnesCount64(c.search.Mask[tor]) // 0 for src itself
		}
		hops := make([]fib.NextHop, 0, total)
		for _, tor := range c.tors {
			lo := len(hops)
			for m := c.search.Mask[tor]; m != 0; m &= m - 1 {
				via, _ := c.topo.LinkOnPort(src, bits.TrailingZeros64(m)).Other(src)
				hops = append(hops, fib.NextHop{Port: bits.TrailingZeros64(m), Via: c.topo.Node(via).Addr})
			}
			if len(hops) > lo {
				b.routes[k] = append(b.routes[k], fib.Route{Prefix: c.topo.Node(tor).Subnet, Source: fib.OSPF, NextHops: hops[lo:len(hops):len(hops)]})
			}
		}
	}
	return b
}
