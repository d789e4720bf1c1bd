package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// The §IV-A run shape, spelled out so that exp.RunRecovery and the traced
// reassembly are handed identical numbers rather than each its own defaults.
const (
	recoveryPorts    = 8
	recoveryFailAt   = 380 * sim.Millisecond
	recoveryHorizon  = 2 * sim.Second
	recoveryBin      = 20 * time.Millisecond
	recoverySegment  = 1448
	recoveryInterval = 100 * time.Microsecond
	// recoveryConverge is how long after detection the converge phase is
	// given: the 200 ms SPF timer, the 10 ms FIB install and flooding.
	recoveryConverge = 250 * time.Millisecond
)

// recoveryCell is one cell of the paper's matrix with its expected loss.
type recoveryCell struct {
	scheme exp.Scheme
	cond   failure.Condition
	// paperMs is the paper's anatomy for the cell and tolMs the tolerance
	// the cell must meet for the operation to count as correct.
	paperMs, tolMs float64
}

// recoveryCells is fat tree C1–C5 and F²Tree C1–C7: fast reroute holds the
// loss at the 60 ms detection time except under C7, where (as everywhere on
// the fat tree) recovery waits for 60 + 200 + 10 ms of reconvergence.
func recoveryCells() []recoveryCell {
	var cells []recoveryCell
	for _, s := range []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Tree} {
		for _, c := range failure.AllConditions() {
			switch {
			case s == exp.SchemeFatTree && !c.FatTreeApplicable():
			case s == exp.SchemeFatTree || c == failure.C7:
				cells = append(cells, recoveryCell{s, c, 270, 10})
			default:
				cells = append(cells, recoveryCell{s, c, 60, 5})
			}
		}
	}
	return cells
}

func recoveryOptions(cell recoveryCell, passSeed int64) exp.RecoveryOptions {
	return exp.RecoveryOptions{
		Scheme: cell.scheme, Ports: recoveryPorts, Condition: cell.cond,
		FailAt: recoveryFailAt, Horizon: recoveryHorizon, BinWidth: recoveryBin,
		SegmentBytes: recoverySegment, SendInterval: recoveryInterval,
		Seed: exp.RecoverySeed(passSeed, cell.scheme, recoveryPorts, cell.cond, exp.ControlOSPF, 0),
	}
}

// recoveryOutcome is every simulated figure one cell produces.
type recoveryOutcome struct {
	loss, collapse time.Duration
	sent, lost     uint64
	timeouts       int
	// events is only known to the reassembled run: exp.RunRecovery does
	// not expose its simulators.
	events uint64
}

func (o recoveryOutcome) digest() string {
	return fmt.Sprintf("loss=%d lost=%d sent=%d collapse=%d rto=%d", o.loss, o.lost, o.sent, o.collapse, o.timeouts)
}

func recoveryWorkload() *simWorkload {
	cells := recoveryCells()
	return &simWorkload{
		shapes: []labShape{
			{labSpec{scheme: exp.SchemeFatTree, ports: recoveryPorts}, 2 * 5},
			{labSpec{scheme: exp.SchemeF2Tree, ports: recoveryPorts}, 2 * 7},
		},
		pass: func(sc scope, passSeed int64, c layerCounts) ([]opResult, error) {
			ops := make([]opResult, 0, len(cells))
			var errSum float64
			for _, cell := range cells {
				o := recoveryOptions(cell, passSeed)
				begin := now()
				var out recoveryOutcome
				if sc.tr == nil {
					r, err := exp.RunRecovery(o)
					if err != nil {
						return nil, fmt.Errorf("%s %s: %w", cell.scheme, cell.cond, err)
					}
					out = recoveryOutcome{loss: r.ConnectivityLoss, collapse: r.CollapseDuration,
						sent: r.PacketsSent, lost: r.PacketsLost, timeouts: r.TCPTimeouts}
				} else {
					err := sc.span("op.cell", func(sc scope) (err error) {
						out, err = runRecoverySliced(sc, o, c, true)
						return err
					})
					if err != nil {
						return nil, fmt.Errorf("%s %s traced: %w", cell.scheme, cell.cond, err)
					}
				}
				op := opResult{ms: millis(since(begin)), digest: out.digest()}
				lossMs := millis(out.loss)
				if math.Abs(lossMs-cell.paperMs) > cell.tolMs {
					op.fault = fmt.Sprintf("%s %s: loss %.1f ms outside %.0f±%.0f ms", cell.scheme, cell.cond, lossMs, cell.paperMs, cell.tolMs)
				}
				errSum += math.Abs(lossMs-cell.paperMs) / cell.paperMs * 100
				ops = append(ops, op)
			}
			c.add("paper.err_pct", errSum/float64(len(cells)))
			return ops, nil
		},
		kernels: func(k *kernelEnv) {
			ls := labSpec{scheme: exp.SchemeF2Tree, ports: recoveryPorts}
			k.simKernel()
			k.networkKernel(ls)
			k.fibKernel(ls)
			k.transportKernel(ls)
			k.ospfKernel(ls)
		},
	}
}

// runRecoverySliced is exp.RunRecovery reassembled from the public pieces it
// is made of — lab, stacks, flow, on-path failure injection — with the one
// Sim.Run cut at the recovery phases' boundaries when sliced is set. It must
// reproduce exp.RunRecovery's simulated figures exactly; the traced pass
// fails the operation if it does not.
func runRecoverySliced(sc scope, o exp.RecoveryOptions, c layerCounts, sliced bool) (recoveryOutcome, error) {
	var out recoveryOutcome
	ls := labSpec{scheme: o.Scheme, ports: o.Ports, seed: o.Seed, net: o.Net, ospf: o.OSPF}

	// injectOnPath fails the condition's links on the flow's own current
	// path at FailAt, as the paper's testbed does.
	var condErr error
	injectOnPath := func(lab *core.Lab, src topo.NodeID, flow func() ([]topo.LinkID, error)) {
		lab.Sim.At(o.FailAt, func(sim.Time) {
			links, err := flow()
			if err != nil {
				condErr = err
				return
			}
			for _, id := range links {
				lab.Net.FailLink(id)
			}
		})
	}
	run := func(sc scope, lab *core.Lab) error {
		bounds := []sim.Time{o.Horizon}
		names := []string{"phase.tail"}
		if sliced {
			detected := o.FailAt.Add(lab.Net.DetectionBound())
			bounds = []sim.Time{o.FailAt - 1, detected, detected.Add(recoveryConverge), o.Horizon}
			names = []string{"phase.steady", "phase.detect", "phase.converge", "phase.tail"}
		}
		if err := runSliced(sc, lab.Sim, c, names, bounds); err != nil {
			return err
		}
		out.events += lab.Sim.EventsRun()
		c.observeLab(lab)
		return condErr
	}
	endpoints := func(sc scope, lab *core.Lab) (src topo.NodeID, srcStack, dstStack *transport.Stack, err error) {
		src = lab.LeftmostHost()
		stack := func(host topo.NodeID) (st *transport.Stack, err error) {
			err = sc.span("transport.stack_new", func(scope) (err error) {
				st, err = transport.NewStack(lab.Net, host)
				return err
			})
			return st, err
		}
		if srcStack, err = stack(src); err != nil {
			return src, nil, nil, err
		}
		dstStack, err = stack(lab.RightmostHost())
		return src, srcStack, dstStack, err
	}

	err := sc.span("op.udp", func(sc scope) error {
		lab, err := buildLab(sc, ls)
		if err != nil {
			return err
		}
		src, srcStack, dstStack, err := endpoints(sc, lab)
		if err != nil {
			return err
		}
		sink, err := dstStack.NewUDPSink(9)
		if err != nil {
			return err
		}
		source := srcStack.StartUDPSource(dstStack.Addr(), 9, o.SegmentBytes, o.SendInterval)
		injectOnPath(lab, src, func() ([]topo.LinkID, error) {
			path, err := lab.Net.PathTrace(src, source.FlowKey())
			if err != nil {
				return nil, err
			}
			return failure.ConditionLinks(lab.Topo, o.Condition, path)
		})
		if err := run(sc, lab); err != nil {
			return err
		}
		source.Stop()
		arrivals := make([]sim.Time, 0, len(sink.Arrivals))
		for _, a := range sink.Arrivals {
			arrivals = append(arrivals, a.Arrived)
		}
		out.loss = metrics.ConnectivityLoss(arrivals, o.FailAt, o.Horizon)
		out.sent = source.Sent()
		out.lost = source.Sent() - uint64(len(sink.Arrivals))
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("udp run: %w", err)
	}

	err = sc.span("op.tcp", func(sc scope) error {
		lab, err := buildLab(sc, ls)
		if err != nil {
			return err
		}
		src, srcStack, dstStack, err := endpoints(sc, lab)
		if err != nil {
			return err
		}
		var samples []metrics.Sample
		var prev int64
		err = dstStack.Listen(80, func(_ sim.Time, conn *transport.Conn) {
			conn.OnData(func(now sim.Time, total int64) {
				samples = append(samples, metrics.Sample{At: now, Bytes: int(total - prev)})
				prev = total
			})
		})
		if err != nil {
			return err
		}
		conn, err := srcStack.Dial(dstStack.Addr(), 80)
		if err != nil {
			return err
		}
		// Paced application: one segment per interval, as the paper's flows.
		conn.OnEstablished(func(sim.Time) {
			lab.Sim.Ticker(o.SendInterval, func(sim.Time) { conn.Send(o.SegmentBytes) })
		})
		injectOnPath(lab, src, func() ([]topo.LinkID, error) {
			path, err := lab.Net.PathTrace(src, conn.FlowKey())
			if err != nil {
				return nil, err
			}
			return failure.ConditionLinks(lab.Topo, o.Condition, path)
		})
		if err := run(sc, lab); err != nil {
			return err
		}
		bins := metrics.BinThroughput(samples, 0, o.Horizon, o.BinWidth)
		pre := metrics.PreFailureAverage(bins, o.BinWidth, o.FailAt)
		out.collapse = metrics.CollapseDuration(bins, o.BinWidth, o.FailAt, pre, 2)
		out.timeouts = conn.Timeouts()
		c.add("transport.retransmits", float64(conn.Retransmits()))
		c.add("transport.timeouts", float64(conn.Timeouts()))
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("tcp run: %w", err)
	}
	return out, nil
}
