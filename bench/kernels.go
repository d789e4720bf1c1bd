package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fib"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// kernelEnv is what the quiet-lab kernels share. A kernel drives one layer
// alone, on input shaped like the workload's, and writes that layer's unit
// costs into the run's per-layer metrics. The first error stops the rest.
type kernelEnv struct {
	sc     scope
	res    *runResult
	counts layerCounts
	seed   int64
	err    error
}

// kernel runs fn under a span unless an earlier kernel failed.
func (k *kernelEnv) kernel(name string, fn func(sc scope) error) {
	if k.err != nil {
		return
	}
	if err := k.sc.span("kernel."+name, fn); err != nil {
		k.err = fmt.Errorf("%s: %w", name, err)
	}
}

func (k *kernelEnv) set(metric string, v float64) { k.res.metrics[metric] = v }

// simKernel times the event core's schedule-and-pop cycle with the heap held
// at the depth the workload's own run reached.
func (k *kernelEnv) simKernel() {
	k.kernel("sim", func(scope) error {
		const events = 2_000_000
		depth := int(k.counts["sim.peak_pending"])
		if depth < 1 {
			depth = 1
		}
		s := sim.New(1)
		for i := 0; i < depth; i++ {
			s.At(sim.Time(time.Hour), func(sim.Time) {})
		}
		left := events
		var tick sim.ArgEvent
		tick = func(_ sim.Time, _ any) {
			if left--; left > 0 {
				s.AfterArg(time.Microsecond, tick, nil)
			}
		}
		s.AfterArg(time.Microsecond, tick, nil)
		begin := now()
		if err := s.Run(sim.Time(time.Minute)); err != nil {
			return err
		}
		k.set("sim.ns_per_event", float64(since(begin))/events)
		return nil
	})
}

// networkKernel times forwarding alone: one corner-to-corner UDP flow on a
// quiet lab, with the per-switch flow cache on and then ablated.
func (k *kernelEnv) networkKernel(ls labSpec) {
	perHop := func(disableCache bool) (float64, error) {
		ls := ls
		ls.net.DisableFlowCache = disableCache
		lab, err := buildLab(scope{}, ls)
		if err != nil {
			return 0, err
		}
		src, err := transport.NewStack(lab.Net, lab.LeftmostHost())
		if err != nil {
			return 0, err
		}
		dst, err := transport.NewStack(lab.Net, lab.RightmostHost())
		if err != nil {
			return 0, err
		}
		if _, err := dst.NewUDPSink(9); err != nil {
			return 0, err
		}
		source := src.StartUDPSource(dst.Addr(), 9, recoverySegment, recoveryInterval)
		begin := now()
		if err := lab.Sim.Run(5 * sim.Second); err != nil {
			return 0, err
		}
		took := since(begin)
		source.Stop()
		c := make(layerCounts)
		c.observeLab(lab)
		if c["network.forwarded"] == 0 {
			return 0, fmt.Errorf("no packet was forwarded")
		}
		return float64(took) / c["network.forwarded"], nil
	}
	k.kernel("network", func(scope) error {
		cached, err := perHop(false)
		if err != nil {
			return err
		}
		plain, err := perHop(true)
		if err != nil {
			return err
		}
		k.set("network.ns_per_hop", cached)
		k.set("network.ns_per_hop_nocache", plain)
		return nil
	})
}

// fibKernel rebuilds a converged ToR's table from its Routes() and looks up
// the flows a host under that ToR would send to every other host: through the
// flow cache, by longest-prefix match, and then times a full source install.
func (k *kernelEnv) fibKernel(ls labSpec) {
	k.kernel("fib", func(scope) error {
		lab, err := buildLab(scope{}, ls)
		if err != nil {
			return err
		}
		tors := lab.Topo.NodesOfKind(topo.ToR)
		hosts := lab.Topo.NodesOfKind(topo.Host)
		if len(tors) == 0 || len(hosts) < 2 {
			return fmt.Errorf("fabric has no ToR or hosts")
		}
		routes := lab.Net.Table(tors[0]).Routes()
		rebuild := func() (*fib.Table, error) {
			t := fib.New()
			for _, r := range routes {
				if err := t.Add(r); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
		self := lab.Topo.Node(lab.Topo.HostsUnder(tors[0])[0]).Addr
		keys := make([]fib.FlowKey, 0, len(hosts))
		for i, h := range hosts {
			if dst := lab.Topo.Node(h).Addr; dst != self {
				keys = append(keys, fib.FlowKey{Src: self, Dst: dst, Proto: 6, SrcPort: uint16(40000 + i), DstPort: 5000})
			}
		}
		usable := func(fib.NextHop) bool { return true }
		const lookups = 1_000_000
		perLookup := func(t *fib.Table) (float64, error) {
			begin := now()
			for i := 0; i < lookups; i++ {
				key := keys[i%len(keys)]
				if _, ok := t.Lookup(key.Dst, key, usable); !ok {
					return 0, fmt.Errorf("no route to %v", key.Dst)
				}
			}
			return float64(since(begin)) / lookups, nil
		}
		lpm, err := rebuild()
		if err != nil {
			return err
		}
		cached, err := rebuild()
		if err != nil {
			return err
		}
		cached.EnableFlowCache(0)
		lpmNs, err := perLookup(lpm)
		if err != nil {
			return err
		}
		cachedNs, err := perLookup(cached)
		if err != nil {
			return err
		}
		// The protocol's routes are the bulk of the table and the part a
		// reconvergence reinstalls.
		src := fib.OSPF
		if ls.control == core.ControlBGP {
			src = fib.BGP
		}
		learned := lpm.SourceRoutes(src)
		var installs sample
		for i := 0; i < 200; i++ {
			begin := now()
			if err := lpm.ReplaceSource(src, learned); err != nil {
				return err
			}
			installs = append(installs, micros(since(begin)))
		}
		k.set("fib.routes_per_table", float64(len(routes)))
		k.set("fib.ns_per_lookup_lpm", lpmNs)
		k.set("fib.ns_per_lookup_cached", cachedNs)
		k.set("fib.replace_source_us", installs.median())
		k.res.timings["fib.replace_source_us"] = installs
		return nil
	})
}

// transportKernel times the TCP machinery alone: one bulk flow between two
// hosts of the same ToR, so the path is two hops and never fails.
func (k *kernelEnv) transportKernel(ls labSpec) {
	k.kernel("transport", func(sc scope) error {
		lab, err := buildLab(scope{}, ls)
		if err != nil {
			return err
		}
		rack := lab.Topo.HostsUnder(lab.Topo.NodesOfKind(topo.ToR)[0])
		if len(rack) < 2 {
			return fmt.Errorf("first ToR has fewer than two hosts")
		}
		var stacks []*transport.Stack
		for _, h := range rack[:2] {
			err := sc.span("transport.stack_new", func(scope) error {
				st, err := transport.NewStack(lab.Net, h)
				stacks = append(stacks, st)
				return err
			})
			if err != nil {
				return err
			}
		}
		if err := stacks[1].Listen(80, func(sim.Time, *transport.Conn) {}); err != nil {
			return err
		}
		conn, err := stacks[0].Dial(stacks[1].Addr(), 80)
		if err != nil {
			return err
		}
		const segments = 100_000
		conn.OnEstablished(func(sim.Time) { conn.Send(segments * recoverySegment) })
		begin := now()
		if err := lab.Sim.RunUntilIdle(); err != nil {
			return err
		}
		took := since(begin)
		if conn.Acked() < segments*recoverySegment {
			return fmt.Errorf("bulk flow acked %d of %d bytes", conn.Acked(), segments*recoverySegment)
		}
		k.set("transport.us_per_segment", micros(took)/segments)
		return nil
	})
}

// converge fails and restores seeded fabric links of a quiet converged lab
// one at a time, each time running the simulator until the control plane is
// idle again, and returns the host time of each link-down and link-up.
func converge(lab *core.Lab, rng *rand.Rand, rounds int) (down, up sample, err error) {
	links := fabricLinks(lab.Topo)
	for _, i := range rng.Perm(len(links))[:rounds] {
		for _, fail := range []bool{true, false} {
			begin := now()
			if fail {
				lab.Net.FailLink(links[i].ID)
			} else {
				lab.Net.RestoreLink(links[i].ID)
			}
			if err := lab.Sim.RunUntilIdle(); err != nil {
				return nil, nil, err
			}
			if fail {
				down = append(down, millis(since(begin)))
			} else {
				up = append(up, millis(since(begin)))
			}
		}
	}
	return down, up, nil
}

const convergeRounds = 5

// ospfKernel times single-link reconvergence of the whole domain under the
// incremental control plane and under the Config.FullSPF ablation.
func (k *kernelEnv) ospfKernel(ls labSpec) {
	k.kernel("ospf", func(sc scope) error {
		for _, full := range []bool{false, true} {
			ls := ls
			ls.ospf = ospf.Config{FullSPF: full}
			lab, err := buildLab(scope{}, ls)
			if err != nil {
				return err
			}
			down, up, err := converge(lab, rand.New(rand.NewSource(k.seed)), convergeRounds)
			if err != nil {
				return err
			}
			if full {
				k.set("ospf.linkdown_converge_fullspf_ms", down.median())
			} else {
				k.set("ospf.linkdown_converge_ms", down.median())
				k.set("ospf.linkup_converge_ms", up.median())
			}
		}
		return nil
	})
}

// bgpKernel times BGP's bootstrap (host time and bytes allocated) and its
// single-link reconvergence.
func (k *kernelEnv) bgpKernel(ls labSpec) {
	k.kernel("bgp", func(sc scope) error {
		meter := startMemMeter()
		lab, err := buildLab(sc, ls)
		if err != nil {
			return err
		}
		allocMB, _ := meter.since()
		k.set("bgp.bootstrap_alloc_mb", allocMB)
		down, _, err := converge(lab, rand.New(rand.NewSource(k.seed)), convergeRounds)
		if err != nil {
			return err
		}
		k.set("bgp.linkdown_converge_ms", down.median())
		return nil
	})
}

// controllerKernel bootstraps the centralized controller on the same fabric;
// no workload runs it, the figure is there for comparison with the other two.
func (k *kernelEnv) controllerKernel(ls labSpec) {
	k.kernel("controller", func(sc scope) error {
		ls := ls
		ls.control = core.ControlCentralized
		_, err := buildLab(sc, ls)
		return err
	})
}

// labKernel builds the workload's lab piece by piece, for the workloads whose
// own labs are built out of the benchmark's sight inside chaos and serve.
func (k *kernelEnv) labKernel(ls labSpec) {
	k.kernel("lab", func(sc scope) error {
		for i := 0; i < 3; i++ {
			if _, err := buildLab(sc, ls); err != nil {
				return err
			}
		}
		return nil
	})
}

// detectKernel runs a quiet lab for one simulated second under the fixed
// detector and under free-running BFD sessions; the difference is what BFD
// alone costs.
func (k *kernelEnv) detectKernel(ls labSpec) {
	quiet := func(spec detect.Spec) (events float64, took time.Duration, err error) {
		ls := ls
		ls.net.Detector = spec
		lab, err := buildLab(scope{}, ls)
		if err != nil {
			return 0, 0, err
		}
		before := lab.Sim.EventsRun()
		begin := now()
		if err := lab.Sim.Run(lab.Sim.Now() + sim.Second); err != nil {
			return 0, 0, err
		}
		took = since(begin)
		lab.Net.StopDetector()
		return float64(lab.Sim.EventsRun() - before), took, nil
	}
	k.kernel("detect", func(scope) error {
		fixedEvents, fixedTook, err := quiet(detect.Spec{})
		if err != nil {
			return err
		}
		bfdEvents, bfdTook, err := quiet(detect.Spec{Mode: "bfd"})
		if err != nil {
			return err
		}
		if bfdEvents <= fixedEvents {
			return fmt.Errorf("BFD ran %v events against the fixed detector's %v", bfdEvents, fixedEvents)
		}
		k.set("detect.bfd_events_per_sim_s", bfdEvents-fixedEvents)
		k.set("detect.bfd_ns_per_event", float64(bfdTook-fixedTook)/(bfdEvents-fixedEvents))
		return nil
	})
}
