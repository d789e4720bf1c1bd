package exp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/topo"
)

// dualLab builds a converged f2tree-dual lab under the given control plane.
func dualLab(t *testing.T, control string, disableFRR bool) *core.Lab {
	t.Helper()
	lab, err := NewLab(LabSpec{
		Scheme: SchemeF2TreeDual, Ports: 6, Control: control, Seed: 7,
		DisableFastReroute: disableFRR,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func crossRackPair(t *testing.T, lab *core.Lab) (src, dst topo.NodeID) {
	t.Helper()
	if len(lab.Topo.Racks) < 2 {
		t.Fatalf("want ≥ 2 racks, got %d", len(lab.Topo.Racks))
	}
	return lab.Topo.Racks[0].Hosts[0], lab.Topo.Racks[len(lab.Topo.Racks)-1].Hosts[0]
}

func tracePath(t *testing.T, lab *core.Lab, src, dst topo.NodeID) []topo.LinkID {
	t.Helper()
	key := fib.FlowKey{Src: lab.Topo.Node(src).Addr, Dst: lab.Topo.Node(dst).Addr, SrcPort: 9, DstPort: 9}
	p, err := lab.Net.PathTrace(src, key)
	if err != nil {
		t.Fatalf("PathTrace %s→%s: %v", lab.Topo.Node(src).Name, lab.Topo.Node(dst).Name, err)
	}
	return p.Links
}

// TestDualToRReachability: cross-rack forwarding works under each control
// plane, and killing the destination host's in-use uplink reroutes through
// the rack (second host link or peer link) once detection fires.
func TestDualToRReachability(t *testing.T) {
	for _, tc := range []struct {
		name    string
		control string
		frrOff  bool
	}{
		{"ospf", ControlOSPF, false},
		{"bgp", ControlBGP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lab := dualLab(t, tc.control, tc.frrOff)
			src, dst := crossRackPair(t, lab)
			links := tracePath(t, lab, src, dst)
			if len(links) == 0 {
				t.Fatal("empty path")
			}
			// The last link is the host link in use at dst; kill it.
			last := links[len(links)-1]
			l := lab.Topo.Link(last)
			if o, _ := l.Other(dst); lab.Topo.Node(o).Kind != topo.ToR {
				t.Fatalf("last path link %d is not dst's host link", last)
			}
			lab.Net.FailLink(last)
			// Let detection fire (fixed 60 ms default) plus slack; the path
			// must reroute before any control-plane reconvergence is needed
			// (the /32 becomes unusable, the rack absorbs it locally).
			deadline := lab.Sim.Now().Add(lab.Net.DetectionBound() + 10*time.Millisecond)
			if err := lab.Sim.Run(deadline); err != nil {
				t.Fatal(err)
			}
			relinks := tracePath(t, lab, src, dst)
			for _, id := range relinks {
				if id == last {
					t.Fatalf("rerouted path still uses failed link %d", last)
				}
			}
		})
	}
}

// TestDualToRPeerRouteBackup: traffic arriving at the "wrong" ToR (direct
// host link dead) crosses the rack peer link instead of blackholing.
func TestDualToRPeerRouteBackup(t *testing.T) {
	lab := dualLab(t, ControlOSPF, false)
	_, dst := crossRackPair(t, lab)
	rack := lab.Topo.RackOf(dst)
	if rack == nil {
		t.Fatal("dst not in a rack")
	}
	// Fail dst's link to ToR A, then trace from ToR A's side: the FIB on
	// ToR A must send rack traffic for dst over the peer link.
	torA := rack.ToRs[0]
	var hostLinkA topo.LinkID = topo.None
	for _, l := range lab.Topo.LinksOf(dst) {
		if o, _ := l.Other(dst); o == torA {
			hostLinkA = l.ID
		}
	}
	if hostLinkA == topo.None {
		t.Fatal("dst has no link to rack ToR A")
	}
	lab.Net.FailLink(hostLinkA)
	if err := lab.Sim.Run(lab.Sim.Now().Add(lab.Net.DetectionBound() + 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	st := lab.Net.Table(torA)
	res, ok := st.Lookup(lab.Topo.Node(dst).Addr, fib.FlowKey{Dst: lab.Topo.Node(dst).Addr}, func(nh fib.NextHop) bool {
		return lab.Net.PortBelievedUp(torA, nh.Port)
	})
	if !ok {
		t.Fatal("ToR A has no route to dst after host-link failure")
	}
	peer := lab.Topo.Link(rack.Peer)
	peerPort, _ := peer.PortOf(torA)
	if res.NextHop.Port != peerPort {
		t.Fatalf("ToR A forwards dst traffic out port %d, want peer port %d", res.NextHop.Port, peerPort)
	}
}
