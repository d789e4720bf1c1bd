package bgp

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// SetNodeDown crashes (down=true) or restarts (down=false) a switch's BGP
// speaker.
//
// Crash: the speaker forgets everything (RIBs, session state) and stops
// processing, but its last installed FIB persists — the data plane keeps
// forwarding on stale state (persist-on-crash), which is what makes
// graceful restart useful: helpers retain the routes through the crashed
// node, and traffic keeps flowing over them. Peers learn of the crash
// after ProcDelay (their side of each session drops).
//
// Restart: the speaker re-originates its subnet and re-establishes every
// session whose link is physically healthy and whose peer is alive; both
// sides re-advertise their full tables, terminated under GR by End-of-RIB
// markers that flush whatever stale state was not refreshed.
func (d *Domain) SetNodeDown(now sim.Time, node topo.NodeID, down bool) {
	inst := d.Instance(node)
	if inst == nil || inst.down == down {
		return
	}
	if down {
		inst.down = true
		clear(inst.ribIn)
		clear(inst.locRib)
		for k := range inst.sessions {
			s := &inst.sessions[k]
			s.up = false
			s.retained = false
			s.stale = nil
			s.depreferenced = false
			s.eorPending = false
			s.grEpoch++
			clear(s.pending)
		}
		// Peers notice after one processing delay, in link order.
		for k := range inst.sessions {
			d.sim.AfterArg(d.cfg.ProcDelay, crashNotice, inst.sessions[k].remote())
		}
		return
	}
	inst.down = false
	nd := d.topo.Node(node)
	if nd.Kind == topo.ToR && !nd.Subnet.IsZero() {
		inst.originate(nd.Subnet)
	}
	for k := range inst.sessions {
		s := &inst.sessions[k]
		if s.peer.down || !d.nw.LinkUp(s.link) {
			continue
		}
		inst.sessionUp(now, s)
		// The peer's side re-establishes too (it saw the session drop at
		// crash time) and re-advertises toward the restarted speaker.
		if ps := s.remote(); !ps.up {
			s.peer.sessionUp(now, ps)
		}
	}
}

// crashNotice is the sim.ArgEvent of a peer noticing a crash over the
// session: its side drops unless the peer crashed too or it already fell.
func crashNotice(now sim.Time, arg any) {
	ps := arg.(*session)
	if ni := ps.speaker(); !ni.down && ps.up {
		ni.sessionDown(now, ps)
	}
}

// NodeDown reports whether the node's speaker is crashed.
func (d *Domain) NodeDown(node topo.NodeID) bool {
	inst := d.Instance(node)
	return inst != nil && inst.down
}

// GRSpec is the JSON-embeddable graceful-restart configuration used by
// scenario and campaign schemas. Its presence enables GR helper mode.
type GRSpec struct {
	// RestartMs overrides the stale-retention timer (default 2000 ms).
	RestartMs int `json:"restartMs,omitempty"`
	// LongLived enables LLGR: expired stale routes are depreferenced and
	// kept for StaleMs more instead of flushed.
	LongLived bool `json:"longLived,omitempty"`
	// StaleMs overrides the LLGR depreferenced-retention window (default
	// 30000 ms).
	StaleMs int `json:"staleMs,omitempty"`
}

// Validate rejects malformed specs.
func (g *GRSpec) Validate() error {
	if g.RestartMs < 0 {
		return fmt.Errorf("bgp: negative gr restartMs %d", g.RestartMs)
	}
	if g.StaleMs < 0 {
		return fmt.Errorf("bgp: negative gr staleMs %d", g.StaleMs)
	}
	if g.StaleMs > 0 && !g.LongLived {
		return fmt.Errorf("bgp: gr staleMs set without longLived")
	}
	return nil
}

// Apply enables graceful restart on a Config with the spec's timers.
func (g *GRSpec) Apply(c Config) Config {
	c.GracefulRestart = true
	if g.RestartMs > 0 {
		c.RestartTime = time.Duration(g.RestartMs) * time.Millisecond
	}
	c.LongLived = g.LongLived
	if g.StaleMs > 0 {
		c.LLGRStaleTime = time.Duration(g.StaleMs) * time.Millisecond
	}
	return c
}
