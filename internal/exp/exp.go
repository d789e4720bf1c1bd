// Package exp is where a run is assembled and where the paper's experiments
// are defined. Assembly: NewLab turns a LabSpec into a converged lab,
// AttachProbes starts UDP probe flows on it, and failures are injected
// relative to a flow's current path (failure.LinksOnPath) — every driver
// (campaign, chaos, scenario, serve, the commands) builds its runs from
// these. Experiments: the single-run ones (RunRecovery,
// RunPartitionAggregate, RunBisection) and the small fixed sets
// (RunFig2Table3, RunFig7, RunProtocols, the sweeps) run here; the multi-run
// figures (Fig 4/5, Fig 6) are matrices executed by package campaign, which
// fills the result types this package renders.
//
// Index (see DESIGN.md):
//
//	table1 — scalability formulas (Table I)
//	fig2/table3 — k=4 testbed recovery, UDP + TCP (Fig 2, Table III)
//	table4 — failure-condition catalog (Table IV)
//	fig4 — k=8 per-condition recovery metrics (Fig 4; campaign.RunFig4)
//	fig5 — end-to-end delay series during recovery (Fig 5; same runs)
//	fig6 — partition-aggregate under random failures (Fig 6; campaign.RunFig6)
//	fig7 — Leaf-Spine / VL2 variants (Fig 7, §V)
package exp

import (
	"fmt"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/failure"
	"repro/internal/fib"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/ospf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Scheme names a topology family.
type Scheme string

// Schemes usable in experiments.
const (
	SchemeFatTree     Scheme = "fattree"
	SchemeF2Tree      Scheme = "f2tree"
	SchemeF2Proto     Scheme = "f2tree-proto"
	SchemeF2Wide      Scheme = "f2tree-wide"
	SchemeLeafSpine   Scheme = "leafspine"
	SchemeF2LeafSpine Scheme = "f2leafspine"
	SchemeVL2         Scheme = "vl2"
	SchemeF2VL2       Scheme = "f2vl2"
	SchemeAspen       Scheme = "aspen"
	// SchemeF2TreeDual is F²Tree rewired into dual-ToR racks (shared rack
	// subnets, dual-homed hosts, rack peer links) — the production
	// attachment the detector-comparison experiments run on.
	SchemeF2TreeDual Scheme = "f2tree-dual"
)

// BuildTopology constructs the named scheme with n-port switches.
func BuildTopology(s Scheme, n int) (*topo.Topology, error) {
	switch s {
	case SchemeFatTree:
		return topo.FatTree(n)
	case SchemeF2Tree:
		return topo.F2Tree(n)
	case SchemeF2Proto:
		return topo.RewireFatTreePrototype(n)
	case SchemeF2Wide:
		return topo.F2TreeWide(n, 4)
	case SchemeLeafSpine:
		return topo.LeafSpine(n)
	case SchemeF2LeafSpine:
		return topo.F2LeafSpine(n)
	case SchemeVL2:
		return topo.VL2(n)
	case SchemeF2VL2:
		return topo.F2VL2(n)
	case SchemeAspen:
		return topo.AspenTree(n, 1)
	case SchemeF2TreeDual:
		t, err := topo.F2Tree(n)
		if err != nil {
			return nil, err
		}
		if err := topo.MakeDualToR(t); err != nil {
			return nil, err
		}
		return t, nil
	default:
		return nil, fmt.Errorf("exp: unknown scheme %q", s)
	}
}

// RecoveryOptions parameterizes a single-flow recovery experiment (the
// shape of the testbed §III and emulation §IV-A runs).
type RecoveryOptions struct {
	Scheme    Scheme
	Ports     int
	Condition failure.Condition
	// FailAt is when the condition is injected (paper: 380 ms in Fig 2,
	// 100 ms in Fig 5; default 380 ms).
	FailAt sim.Time
	// Horizon is the run length (default 2 s).
	Horizon sim.Time
	// BinWidth is the throughput bin (default 20 ms, as Fig 2).
	BinWidth time.Duration
	// SegmentBytes and SendInterval shape both flows (defaults 1448 B /
	// 100 µs).
	SegmentBytes int
	SendInterval time.Duration
	// Seed drives both runs (0 takes NewLab's default).
	Seed int64
	// DisableFastReroute ablates the backup routes.
	DisableFastReroute bool
	// Control names the control plane: ControlOSPF (also ""), or the §V
	// alternatives ControlBGP and ControlCentralized.
	Control string
	Net     network.Config
	OSPF    ospf.Config
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.FailAt == 0 {
		o.FailAt = 380 * sim.Millisecond
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * sim.Second
	}
	if o.BinWidth == 0 {
		o.BinWidth = 20 * time.Millisecond
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1448
	}
	if o.SendInterval == 0 {
		o.SendInterval = 100 * time.Microsecond
	}
	return o
}

// RecoveryResult carries every metric the paper derives from one run pair.
type RecoveryResult struct {
	Scheme    Scheme
	Condition failure.Condition
	FailAt    sim.Time
	BinWidth  time.Duration

	// UDP flow (Fig 2(a), Table III rows 1–2, Fig 4(a)(b), Fig 5).
	ConnectivityLoss time.Duration
	PacketsSent      uint64
	PacketsLost      uint64
	UDPBins          []metrics.Bin
	Delays           []metrics.DelayPoint

	// TCP flow (Fig 2(b), Table III row 3, Fig 4(c)).
	CollapseDuration time.Duration
	TCPBins          []metrics.Bin
	TCPTimeouts      int
}

// RunRecovery executes the experiment: one UDP run and one TCP run over
// fresh identical networks, injecting the failure condition on the flow's
// own current path, exactly as the paper's testbed does.
func RunRecovery(opts RecoveryOptions) (*RecoveryResult, error) {
	o := opts.withDefaults()
	res := &RecoveryResult{
		Scheme: o.Scheme, Condition: o.Condition,
		FailAt: o.FailAt, BinWidth: o.BinWidth,
	}
	if err := runRecoveryUDP(o, res); err != nil {
		return nil, fmt.Errorf("udp run: %w", err)
	}
	if err := runRecoveryTCP(o, res); err != nil {
		return nil, fmt.Errorf("tcp run: %w", err)
	}
	return res, nil
}

// LabSpec is everything a driver says to get a converged lab: the fields
// every run description (RecoveryOptions, chaos.Scenario, scenario.Scenario,
// …) carries in its own spelling.
type LabSpec struct {
	Scheme Scheme
	Ports  int
	// Control names the control plane (see ParseControl; "" is ospf).
	Control string
	// Seed drives all of the lab's randomness; 0 means 42, the one place
	// that default lives.
	Seed int64
	// DisableFastReroute ablates the backup routes.
	DisableFastReroute bool
	// Detector, if set, replaces Net.Detector; GR, if set, enables BGP
	// graceful restart with the spec's timers.
	Detector *detect.Spec
	GR       *bgp.GRSpec
	Net      network.Config
	OSPF     ospf.Config
}

// ParseControl maps a control-plane name (ControlOSPF, ControlBGP,
// ControlCentralized; "" is ospf) to the core enum.
func ParseControl(name string) (core.ControlPlane, error) {
	switch name {
	case "", ControlOSPF:
		return core.ControlOSPF, nil
	case ControlBGP:
		return core.ControlBGP, nil
	case ControlCentralized:
		return core.ControlCentralized, nil
	default:
		return 0, fmt.Errorf("unknown control plane %q (want %s, %s or %s)",
			name, ControlOSPF, ControlBGP, ControlCentralized)
	}
}

// NewLab builds the spec's topology and a converged lab on it. Every driver
// assembles its lab here.
func NewLab(s LabSpec) (*core.Lab, error) {
	tp, err := BuildTopology(s.Scheme, s.Ports)
	if err != nil {
		return nil, err
	}
	cp, err := ParseControl(s.Control)
	if err != nil {
		return nil, err
	}
	cfg := core.LabConfig{
		Topology: tp, Net: s.Net, OSPF: s.OSPF, ControlPlane: cp,
		Seed: s.Seed, DisableFastReroute: s.DisableFastReroute,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if s.Detector != nil {
		cfg.Net.Detector = *s.Detector
	}
	if s.GR != nil {
		cfg.BGP = s.GR.Apply(cfg.BGP)
	}
	return core.NewLab(cfg)
}

// labSpec is the lab both runs of the experiment are built on.
func (o RecoveryOptions) labSpec() LabSpec {
	return LabSpec{
		Scheme: o.Scheme, Ports: o.Ports, Control: o.Control, Seed: o.Seed,
		DisableFastReroute: o.DisableFastReroute, Net: o.Net, OSPF: o.OSPF,
	}
}

// injectOnPath fails, at o.FailAt, the condition's links relative to the
// path the flow takes then; *failed is set if they cannot be determined, for
// the caller to read after the run.
func injectOnPath(lab *core.Lab, o RecoveryOptions, src topo.NodeID, flow fib.FlowKey, failed *error) {
	lab.Sim.At(o.FailAt, func(sim.Time) {
		links, err := failure.LinksOnPath(lab.Net, o.Condition, src, flow)
		if err != nil {
			*failed = err
			return
		}
		for _, id := range links {
			lab.Net.FailLink(id)
		}
	})
}

func runRecoveryUDP(o RecoveryOptions, res *RecoveryResult) error {
	lab, err := NewLab(o.labSpec())
	if err != nil {
		return err
	}
	probes, err := AttachProbes(lab, []Flow{{Src: "leftmost", Dst: "rightmost"}}, o.SegmentBytes, o.SendInterval, o.Horizon)
	if err != nil {
		return err
	}
	source, sink := probes[0].Source, probes[0].Sink
	var condErr error
	injectOnPath(lab, o, probes[0].Src, source.FlowKey(), &condErr)
	if err := lab.Sim.Run(o.Horizon); err != nil {
		return err
	}
	if condErr != nil {
		return condErr
	}
	source.Stop()

	arr := sink.Arrivals
	bins := metrics.NewBinner(0, o.Horizon, o.BinWidth)
	res.Delays = make([]metrics.DelayPoint, len(arr))
	for i, a := range arr {
		bins.Add(a.Arrived, a.Size)
		res.Delays[i] = metrics.DelayPoint{SentAt: a.SentAt, Delay: a.Arrived.Sub(a.SentAt)}
	}
	res.ConnectivityLoss = metrics.ConnectivityLossOf(len(arr), func(i int) sim.Time { return arr[i].Arrived }, o.FailAt, o.Horizon)
	res.PacketsSent = source.Sent()
	res.PacketsLost = source.Sent() - uint64(len(arr))
	res.UDPBins = bins.Bins
	return nil
}

func runRecoveryTCP(o RecoveryOptions, res *RecoveryResult) error {
	lab, err := NewLab(o.labSpec())
	if err != nil {
		return err
	}
	src, dst := lab.LeftmostHost(), lab.RightmostHost()
	srcStack, err := transport.NewStack(lab.Net, src)
	if err != nil {
		return err
	}
	dstStack, err := transport.NewStack(lab.Net, dst)
	if err != nil {
		return err
	}
	bins := metrics.NewBinner(0, o.Horizon, o.BinWidth)
	var prev int64
	err = dstStack.Listen(80, func(_ sim.Time, c *transport.Conn) {
		c.OnData(func(now sim.Time, total int64) {
			bins.Add(now, int(total-prev))
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
		lab.Sim.Ticker(o.SendInterval, func(sim.Time) {
			conn.Send(o.SegmentBytes)
		})
	})
	var condErr error
	injectOnPath(lab, o, src, conn.FlowKey(), &condErr)
	if err := lab.Sim.Run(o.Horizon); err != nil {
		return err
	}
	if condErr != nil {
		return condErr
	}
	res.TCPBins = bins.Bins
	pre := metrics.PreFailureAverage(res.TCPBins, o.BinWidth, o.FailAt)
	res.CollapseDuration = metrics.CollapseDuration(res.TCPBins, o.BinWidth, o.FailAt, pre, 2)
	res.TCPTimeouts = conn.Timeouts()
	return nil
}
