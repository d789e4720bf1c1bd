package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Flow is one UDP probe flow of a run description. Src and Dst name hosts
// ("leftmost", "rightmost" or a node name like "host-p0-t0-0"); a zero
// IntervalUs or SizeBytes takes the driver's default. The field order is
// part of chaos's trace hash (it is seeded with the scenario's JSON).
type Flow struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	// IntervalUs between datagrams and SizeBytes per datagram.
	IntervalUs int64 `json:"intervalUs,omitempty"`
	SizeBytes  int   `json:"sizeBytes,omitempty"`
}

// Probe is a Flow attached to a lab.
type Probe struct {
	Flow     Flow
	Src, Dst topo.NodeID
	Source   *transport.UDPSource
	Sink     *transport.UDPSink
}

// ResolveHost maps a Flow endpoint to a host: "leftmost" and "rightmost" are
// the paper's S and D, anything else must be a host's node name.
func ResolveHost(lab *core.Lab, name string) (topo.NodeID, error) {
	switch name {
	case "leftmost":
		return lab.LeftmostHost(), nil
	case "rightmost":
		return lab.RightmostHost(), nil
	}
	nd := lab.Topo.FindNode(name)
	if nd == nil || nd.Kind != topo.Host {
		return topo.None, fmt.Errorf("%q is not a host", name)
	}
	return nd.ID, nil
}

// AttachProbes starts the flows on lab, one transport stack per host. Flow i
// sinks on UDP port 9+i; size and interval fill a flow's zero fields. Each
// sink is presized for every datagram its source can send by horizon, so
// recording an arrival never grows it. The construction order (per flow:
// source stack, destination stack, sink, source) fixes event sequence
// numbers, so traces depend on it.
func AttachProbes(lab *core.Lab, flows []Flow, size int, interval time.Duration, horizon sim.Time) ([]*Probe, error) {
	stacks := make(map[topo.NodeID]*transport.Stack)
	stackFor := func(h topo.NodeID) (*transport.Stack, error) {
		if st, ok := stacks[h]; ok {
			return st, nil
		}
		st, err := transport.NewStack(lab.Net, h)
		if err != nil {
			return nil, err
		}
		stacks[h] = st
		return st, nil
	}
	probes := make([]*Probe, 0, len(flows))
	for i, f := range flows {
		src, err := ResolveHost(lab, f.Src)
		if err != nil {
			return nil, err
		}
		dst, err := ResolveHost(lab, f.Dst)
		if err != nil {
			return nil, err
		}
		srcStack, err := stackFor(src)
		if err != nil {
			return nil, err
		}
		dstStack, err := stackFor(dst)
		if err != nil {
			return nil, err
		}
		port := uint16(9 + i)
		sink, err := dstStack.NewUDPSink(port)
		if err != nil {
			return nil, err
		}
		sz, iv := size, interval
		if f.SizeBytes != 0 {
			sz = f.SizeBytes
		}
		if f.IntervalUs != 0 {
			iv = time.Duration(f.IntervalUs) * time.Microsecond
		}
		source := srcStack.StartUDPSource(dstStack.Addr(), port, sz, iv)
		sink.Reserve(int(horizon.Sub(lab.Sim.Now()) / iv))
		probes = append(probes, &Probe{Flow: f, Src: src, Dst: dst, Source: source, Sink: sink})
	}
	return probes, nil
}
