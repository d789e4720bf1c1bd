package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// fingerprint runs one complete failure-recovery scenario — build an
// F²Tree lab, start a UDP flow, fail a link on its forwarding path,
// restore it, run to the horizon — and hashes everything observable:
// the full event trace (port state, drops, SPF runs), every per-packet
// arrival record, and the aggregate counters. Two runs with the same
// seed must produce bit-identical fingerprints; any map-iteration or
// wall-clock leak in the stack shows up here as a flaky mismatch.
func fingerprint(t *testing.T, cp core.ControlPlane, seed int64) string {
	t.Helper()

	tp, err := exp.BuildTopology(exp.SchemeF2Tree, 8)
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	lab, err := core.NewLab(core.LabConfig{Topology: tp, ControlPlane: cp, Seed: seed})
	if err != nil {
		t.Fatalf("NewLab: %v", err)
	}
	dumpTrace := recordTrace(lab)

	srcStack, err := transport.NewStack(lab.Net, lab.LeftmostHost())
	if err != nil {
		t.Fatalf("NewStack(src): %v", err)
	}
	dstStack, err := transport.NewStack(lab.Net, lab.RightmostHost())
	if err != nil {
		t.Fatalf("NewStack(dst): %v", err)
	}
	sink, err := dstStack.NewUDPSink(7)
	if err != nil {
		t.Fatalf("NewUDPSink: %v", err)
	}
	source := srcStack.StartUDPSource(dstStack.Addr(), 7, 1000, 200*time.Microsecond)

	// The control plane is converged (NewLab bootstraps synchronously),
	// so the flow's current path is well defined; tear down a mid-path
	// link and bring it back while traffic keeps flowing.
	path, err := lab.Net.PathTrace(lab.LeftmostHost(), source.FlowKey())
	if err != nil {
		t.Fatalf("PathTrace: %v", err)
	}
	if path.Hops() < 3 {
		t.Fatalf("path too short to fail a core-side link: %d hops", path.Hops())
	}
	failed := path.Links[path.Hops()/2]
	lab.Sim.After(100*time.Millisecond, func(sim.Time) { lab.Net.FailLink(failed) })
	lab.Sim.After(400*time.Millisecond, func(sim.Time) { lab.Net.RestoreLink(failed) })

	if err := lab.Sim.Run(sim.Time(800 * time.Millisecond)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	source.Stop()

	h := sha256.New()
	dumpTrace(h)
	hashFlow(h, source, sink)
	fmt.Fprintf(h, "events=%d now=%d\n", lab.Sim.EventsRun(), lab.Sim.Now())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// recordTrace subscribes to the hooks the network and OSPF expose — port
// state, drops, SPF runs — and returns a function that writes the records,
// one JSON line each in event order, into the fingerprint.
func recordTrace(lab *core.Lab) (dump func(io.Writer)) {
	type record struct {
		AtMicros int64  `json:"atUs"`
		Kind     string `json:"kind"`
		Node     string `json:"node"`
		Detail   string `json:"detail"`
	}
	var records []record
	add := func(now sim.Time, kind string, node topo.NodeID, detail string) {
		records = append(records, record{
			AtMicros: now.Duration().Microseconds(), Kind: kind,
			Node: lab.Topo.Node(node).Name, Detail: detail,
		})
	}
	lab.Net.OnPortState(func(now sim.Time, node topo.NodeID, port int, up bool) {
		state := "down"
		if up {
			state = "up"
		}
		add(now, "port-state", node, fmt.Sprintf("port %d %s", port, state))
	})
	lab.Net.OnDrop(func(now sim.Time, at topo.NodeID, pkt *network.Packet, cause network.DropCause) {
		add(now, "drop", at, fmt.Sprintf("%v dst=%v size=%d hops=%d", cause, pkt.Flow.Dst, pkt.Size, pkt.Hops))
	})
	if lab.Domain != nil {
		lab.Domain.OnSPF(func(now sim.Time, node topo.NodeID) {
			add(now, "spf", node, "spf run")
		})
	}
	return func(w io.Writer) {
		enc := json.NewEncoder(w)
		for _, r := range records {
			_ = enc.Encode(r) // the writer is a hash.Hash, which never fails
		}
	}
}

// hashFlow folds the per-flow packet record — count sent and, for every
// delivered datagram, its sequence number and exact send/arrival
// timestamps — into the fingerprint.
func hashFlow(h hash.Hash, source *transport.UDPSource, sink *transport.UDPSink) {
	fmt.Fprintf(h, "sent=%d delivered=%d\n", source.Sent(), len(sink.Arrivals))
	for _, a := range sink.Arrivals {
		fmt.Fprintf(h, "%d %d %d %d\n", a.Seq, a.SentAt, a.Arrived, a.Size)
	}
}

// TestDeterministicReplay is the repository's determinism regression
// gate: the same failure scenario with the same seed must replay to an
// identical event trace and per-flow packet record under every control
// plane. Run under -race in CI, it also shakes out unsynchronized
// state, though the simulator is single-threaded by design.
func TestDeterministicReplay(t *testing.T) {
	cases := []struct {
		name string
		cp   core.ControlPlane
	}{
		{"ospf", core.ControlOSPF},
		{"centralized", core.ControlCentralized},
		{"bgp", core.ControlBGP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 42
			first := fingerprint(t, tc.cp, seed)
			second := fingerprint(t, tc.cp, seed)
			if first != second {
				t.Errorf("same seed diverged:\n run 1: %s\n run 2: %s", first, second)
			}
		})
	}
}

// TestDeterministicReplayAcrossSeeds pins that each seed is internally
// reproducible for a handful of seeds, not just the one above.
func TestDeterministicReplayAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is slow")
	}
	for _, seed := range []int64{1, 7, 1<<40 + 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if a, b := fingerprint(t, core.ControlOSPF, seed), fingerprint(t, core.ControlOSPF, seed); a != b {
				t.Errorf("seed %d diverged:\n run 1: %s\n run 2: %s", seed, a, b)
			}
		})
	}
}
