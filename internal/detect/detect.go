// Package detect models per-link failure detection. Two detectors are
// provided behind one interface:
//
//   - "fixed": the paper's idealized detector — a port notices its link
//     changed state exactly Delay after the change (the 60 ms the paper's
//     emulation uses, §IV). This is the default and reproduces the
//     pre-existing network behavior byte-identically.
//
//   - "bfd": a deterministic adaptive BFD session model in the spirit of
//     production fabrics (and the Calico dual-ToR suite's
//     failureDetectionMode: BFDIfDirectlyConnected). Each link carries an
//     async session that exchanges echo probes every TxInterval; a probe
//     is late when the link's transmit queues would delay it past
//     EchoBudget, so congestion from data traffic can flap a healthy
//     session (load-coupled false positives). Multiplier consecutive
//     misses declare the session down; on a flap the session renegotiates
//     a longer interval (doubling up to MaxInterval) and decays back to
//     the base interval after a stable stretch.
//
// Detectors are purely simulation-driven: echo probes are modeled as
// zero-size latency samples against the data plane's queue occupancy, not
// as real packets, so they perturb neither the conservation ledgers nor
// the forwarding traces. Everything is deterministic — no wall clock, no
// RNG — and all state is owned by the embedding network.
package detect

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// DefaultDelay is the fixed detector's default delay — the paper's 60 ms
// BFD-like detection time. This is the single authoritative constant; the
// network config and docs reference it rather than repeating the literal.
const DefaultDelay = 60 * time.Millisecond

// Detector modes.
const (
	ModeFixed = "fixed"
	ModeBFD   = "bfd"
)

// Default BFD parameters: 3 × 20 ms reproduces the paper's 60 ms detection
// time with an adaptive session, so swapping detectors keeps the same
// nominal detection bound.
const (
	DefaultTxIntervalUs = 20000
	DefaultMultiplier   = 3
	defaultMaxScale     = 8 // MaxInterval = 8 × TxInterval
)

// Spec selects and parameterizes a detector. The zero value means "fixed
// detector with the embedding config's delay". Spec is JSON-embeddable in
// scenario and campaign schemas; all fields are optional.
type Spec struct {
	// Mode is "fixed" (default) or "bfd".
	Mode string `json:"mode,omitempty"`
	// DelayUs is the fixed detector's delay in microseconds (default: the
	// network's DetectionDelay, itself defaulting to DefaultDelay).
	DelayUs int `json:"delayUs,omitempty"`
	// TxIntervalUs is the BFD base transmit interval in microseconds
	// (default 20000 = 20 ms).
	TxIntervalUs int `json:"txIntervalUs,omitempty"`
	// Multiplier is the BFD detect multiplier: this many consecutive
	// missed echoes declare the session down, and this many consecutive
	// good echoes bring it back up (default 3).
	Multiplier int `json:"multiplier,omitempty"`
	// MaxIntervalUs caps interval renegotiation (default 8 × TxInterval).
	MaxIntervalUs int `json:"maxIntervalUs,omitempty"`
	// EchoBudgetUs is how late an echo probe may run (queueing + one-way
	// propagation, per direction) before it counts as missed (default
	// Multiplier × TxInterval, which congestion in the default
	// configuration cannot exceed — defaults never flap a healthy link).
	EchoBudgetUs int `json:"echoBudgetUs,omitempty"`
}

// WithDefaults resolves zero fields. fallbackDelay seeds the fixed
// detector's delay when DelayUs is unset (pass the embedding network's
// DetectionDelay, or 0 for DefaultDelay).
func (s Spec) WithDefaults(fallbackDelay time.Duration) Spec {
	if s.Mode == "" {
		s.Mode = ModeFixed
	}
	if s.DelayUs == 0 {
		if fallbackDelay == 0 {
			fallbackDelay = DefaultDelay
		}
		s.DelayUs = int(fallbackDelay / time.Microsecond)
	}
	if s.TxIntervalUs == 0 {
		s.TxIntervalUs = DefaultTxIntervalUs
	}
	if s.Multiplier == 0 {
		s.Multiplier = DefaultMultiplier
	}
	if s.MaxIntervalUs == 0 {
		s.MaxIntervalUs = defaultMaxScale * s.TxIntervalUs
	}
	if s.EchoBudgetUs == 0 {
		s.EchoBudgetUs = s.Multiplier * s.TxIntervalUs
	}
	return s
}

// Validate rejects malformed specs. It accepts both raw and
// defaults-resolved specs.
func (s Spec) Validate() error {
	switch s.Mode {
	case "", ModeFixed, ModeBFD:
	default:
		return fmt.Errorf("detect: unknown mode %q (want %q or %q)", s.Mode, ModeFixed, ModeBFD)
	}
	if s.DelayUs < 0 {
		return fmt.Errorf("detect: negative delayUs %d", s.DelayUs)
	}
	if s.TxIntervalUs < 0 || s.Multiplier < 0 || s.MaxIntervalUs < 0 || s.EchoBudgetUs < 0 {
		return fmt.Errorf("detect: negative bfd parameter (txIntervalUs=%d multiplier=%d maxIntervalUs=%d echoBudgetUs=%d)",
			s.TxIntervalUs, s.Multiplier, s.MaxIntervalUs, s.EchoBudgetUs)
	}
	if s.Mode == ModeBFD {
		if s.TxIntervalUs != 0 && s.TxIntervalUs < 100 {
			return fmt.Errorf("detect: txIntervalUs %d below 100 µs floor", s.TxIntervalUs)
		}
		if s.Multiplier > 255 {
			return fmt.Errorf("detect: multiplier %d above 255", s.Multiplier)
		}
		if s.MaxIntervalUs != 0 && s.TxIntervalUs != 0 && s.MaxIntervalUs < s.TxIntervalUs {
			return fmt.Errorf("detect: maxIntervalUs %d below txIntervalUs %d", s.MaxIntervalUs, s.TxIntervalUs)
		}
	}
	return nil
}

// PortRef names one endpoint of a link.
type PortRef struct {
	Node topo.NodeID
	Port int
}

// DataPlane is what a detector needs from the network. The network
// implements it directly; detectors never touch FIBs or packets.
type DataPlane interface {
	// After schedules fn on the owning simulator.
	After(d time.Duration, fn func(now sim.Time))
	// NumLinks is the topology's link count (LinkIDs are dense indices).
	NumLinks() int
	// LinkLive reports whether the link structurally exists (not removed
	// from the topology).
	LinkLive(id topo.LinkID) bool
	// LinkUp reports whether the link is healthy in both directions.
	LinkUp(id topo.LinkID) bool
	// LinkEnds returns the link's two endpoints, A end first.
	LinkEnds(id topo.LinkID) [2]PortRef
	// EchoDelay reports, per direction (A→B then B→A), the latency an
	// echo probe transmitted now would see: queue drain ahead of it plus
	// one-way propagation.
	EchoDelay(id topo.LinkID) [2]time.Duration
	// SetPortBelief records a detector verdict for a local port. The data
	// plane ignores no-op verdicts, may suppress transitions (detection
	// faults), and fans out accepted flips to control-plane listeners.
	SetPortBelief(now sim.Time, node topo.NodeID, port int, up bool)
}

// Detector drives port-state beliefs from link state.
type Detector interface {
	// Start arms the detector (BFD begins its session ticks). Called once
	// at network construction, before any traffic.
	Start()
	// LinkChanged tells the detector a link's actual state may have
	// changed, or that stale beliefs on the link should be re-examined
	// (RescanPorts after a suppression fault ends).
	LinkChanged(id topo.LinkID)
	// Bound is a conservative upper bound on how long the detector takes
	// to converge beliefs after a transition — chaos uses it to place
	// post-fault refresh work safely after detection.
	Bound() time.Duration
	// Stop halts any free-running work (BFD session ticks) so a driver
	// can drain the simulator to idle. Beliefs freeze as they are;
	// one-shot pending verdicts still fire.
	Stop()
}

// New builds the detector selected by spec (which must already be
// defaults-resolved via WithDefaults).
func New(spec Spec, dp DataPlane) (Detector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Mode {
	case ModeFixed:
		return &fixedDetector{dp: dp, delay: time.Duration(spec.DelayUs) * time.Microsecond}, nil
	case ModeBFD:
		return newBFD(spec, dp), nil
	}
	return nil, fmt.Errorf("detect: unresolved spec mode %q (call WithDefaults first)", spec.Mode)
}

// fixedDetector reproduces the pre-detect-package network behavior: each
// endpoint of a changed link samples the link's state exactly delay later
// and adopts it as its belief. Flaps within the window collapse to the
// final state because sampling happens at fire time.
type fixedDetector struct {
	dp    DataPlane
	delay time.Duration
}

func (f *fixedDetector) Start() {}

func (f *fixedDetector) Stop() {}

func (f *fixedDetector) Bound() time.Duration { return f.delay }

func (f *fixedDetector) LinkChanged(id topo.LinkID) {
	ends := f.dp.LinkEnds(id)
	for _, end := range ends {
		end := end
		f.dp.After(f.delay, func(now sim.Time) {
			// Detect whatever the link state is *now* (flaps within the
			// detection window collapse to the final state).
			f.dp.SetPortBelief(now, end.Node, end.Port, f.dp.LinkUp(id))
		})
	}
}
