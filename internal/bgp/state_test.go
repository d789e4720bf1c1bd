package bgp

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/netaddr"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// dumpState renders everything the domain's speakers hold as canonical
// text: speakers in NodeID order, sessions in link order, prefixes in
// prefixLess order. It is the only part of TestProtocolStatePinned that
// knows how the state is stored; the hashes of its output were captured
// while the RIBs were map-of-maps.
func dumpState(d *Domain) string {
	var b strings.Builder
	prefixes := func(set prefixSet) []netaddr.Prefix {
		var out []netaddr.Prefix
		for _, p := range set.appendTo(nil) {
			out = append(out, d.prefixes[p])
		}
		return out
	}
	nodes := func(path *asPath) []topo.NodeID {
		var out []topo.NodeID
		for want := path; path != nil; path = path.next {
			out = append(out, path.node)
			if path.next == nil && int(want.n) != len(out) {
				out = append(out, topo.None) // a path lying about its length breaks the hash
			}
		}
		return out
	}
	for _, inst := range d.instances {
		if inst == nil {
			continue
		}
		fmt.Fprintf(&b, "node %s down=%t fibPending=%t rx=%d\n", d.topo.Node(inst.node).Name, inst.down, inst.fibPending, inst.updatesRx)
		for k := range inst.sessions {
			s := &inst.sessions[k]
			fmt.Fprintf(&b, " sess link=%d nbr=%d port=%d up=%t retained=%t depref=%t epoch=%d eor=%t sched=%t mrai=%d stale=%v pending=%v\n",
				s.link, s.peer.node, s.hop.Port, s.up, s.retained, s.depreferenced, s.grEpoch, s.eorPending, s.scheduled, s.mraiUntil,
				prefixes(s.stale), prefixes(s.pending))
		}
		for p, best := range inst.locRib {
			if best.offer == nil {
				continue
			}
			var hops []fib.NextHop
			for k := range inst.sessions {
				if best.hops&(1<<k) != 0 {
					hops = append(hops, inst.sessions[k].hop)
				}
			}
			fmt.Fprintf(&b, " loc %v len=%d orig=%t repr=%s hops=%s\n", d.prefixes[p], best.pathLen, best.originated, fmtPath(nodes(best.offer.next)), fmtHops(hops))
		}
		for p := range d.prefixes {
			for k := range inst.sessions {
				if path := inst.ribIn[p*len(inst.sessions)+k]; path != nil {
					fmt.Fprintf(&b, " in %v link=%d path=%s\n", d.prefixes[p], inst.sessions[k].link, fmtPath(nodes(path)))
				}
			}
		}
	}
	return b.String()
}

func fmtPath(path []topo.NodeID) string {
	var b strings.Builder
	for _, n := range path {
		fmt.Fprintf(&b, "%d,", n)
	}
	return b.String()
}

func fmtHops(hops []fib.NextHop) string {
	var b strings.Builder
	for _, h := range hops {
		fmt.Fprintf(&b, "%d@%v,", h.Port, h.Via)
	}
	return b.String()
}

func stateHash(d *Domain) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(dumpState(d))))[:12]
}

func dualToR(n int) (*topo.Topology, error) {
	tp, err := topo.F2Tree(n)
	if err != nil {
		return nil, err
	}
	return tp, topo.MakeDualToR(tp)
}

// TestProtocolStatePinned pins the protocol state itself, not just the
// routes and traces it produces: the complete state of every speaker is
// hashed after Bootstrap on every fabric generator (F2VL2(12) is the one
// whose converged Adj-RIB-In depends on the bootstrap pump's delivery
// order) and at every fifth step of a seeded churn of link failures,
// restores, 30 ms flaps and speaker crashes and restarts, without GR, with
// GR and with LLGR. A step runs the simulator for a seeded 20–400 ms, so
// checkpoints catch MRAI timers, scheduled flushes, stale sets and GR
// epochs mid-flight.
func TestProtocolStatePinned(t *testing.T) {
	wide := func(n int) (*topo.Topology, error) { return topo.F2TreeWide(n, 4) }
	aspen := func(n int) (*topo.Topology, error) { return topo.AspenTree(n, 1) }
	for _, tc := range []struct {
		name  string
		build func(int) (*topo.Topology, error)
		n     int
		want  string
	}{
		{"fattree", topo.FatTree, 4, "edf239797e1d"},
		{"fattree", topo.FatTree, 8, "b229adce782e"},
		{"fattree", topo.FatTree, 12, "82d16b7e96aa"},
		{"f2tree", topo.F2Tree, 6, "b860077d9ee8"},
		{"f2tree", topo.F2Tree, 8, "4b9d3018ae98"},
		{"f2tree", topo.F2Tree, 12, "87b6fc72e4d2"},
		{"f2tree", topo.F2Tree, 16, "92b14be95d58"},
		{"f2tree-wide4", wide, 10, "3750b766213b"},
		{"f2tree-wide4", wide, 12, "252b596048cb"},
		{"prototype", topo.RewireFatTreePrototype, 4, "d5c40ac28a74"},
		{"prototype", topo.RewireFatTreePrototype, 8, "e4cd494e5f6e"},
		{"leafspine", topo.LeafSpine, 8, "8363453da22e"},
		{"leafspine", topo.LeafSpine, 16, "285b779fe620"},
		{"f2leafspine", topo.F2LeafSpine, 8, "0ccf014ea471"},
		{"f2leafspine", topo.F2LeafSpine, 16, "3853d1b7dc61"},
		{"vl2", topo.VL2, 8, "e6b71cd0ca73"},
		{"vl2", topo.VL2, 12, "f0c595364091"},
		{"f2vl2", topo.F2VL2, 8, "ad429da0cd84"},
		{"f2vl2", topo.F2VL2, 12, "7d6ff07ca967"},
		{"aspen1", aspen, 8, "05888b6c627e"},
		{"f2tree-dual", dualToR, 6, "b13730f0bc67"},
		{"f2tree-dual", dualToR, 12, "8009c95f5648"},
	} {
		t.Run(fmt.Sprintf("bootstrap/%s/%d", tc.name, tc.n), func(t *testing.T) {
			tp, err := tc.build(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			_, _, d := buildBGP(t, tp, Config{})
			if got := stateHash(d); got != tc.want {
				t.Errorf("state hash after Bootstrap = %s, want %s", got, tc.want)
			}
		})
	}

	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"gr", Config{GracefulRestart: true, RestartTime: 600 * time.Millisecond}},
		{"llgr", Config{GracefulRestart: true, RestartTime: 300 * time.Millisecond, LongLived: true, LLGRStaleTime: 900 * time.Millisecond}},
	}
	for _, tc := range []struct {
		name  string
		build func(int) (*topo.Topology, error)
		n     int
		want  [3][]string // by config, one hash per checkpoint
	}{
		{"fattree", topo.FatTree, 4, [3][]string{
			{"1a70ffa27303", "6a0f3330cd54", "a66fc1bdfa13", "fd571e7bbed5", "e2c005f3e103", "3525528557d3", "2820f44f335b", "2820f44f335b"},
			{"cbb008dd2dbc", "df354a1efd51", "4375ef26a63d", "1a5dbdc26f1b", "7c0620f835a8", "e004821816af", "e307e073ad4b", "92238d2f38d7"},
			{"4a380ec5d3df", "eb4bed1603d0", "07e5f6e1d82d", "2eadfc286614", "dc3c2c651f5f", "74d9b133e741", "82cc0f06927a", "ca1021d71587"},
		}},
		{"f2tree", topo.F2Tree, 8, [3][]string{
			{"459869331360", "c5d5c4764d9e", "f7db0f404670", "0af7d5293212", "cde1ee53bbd3", "ddbf859fac29", "3a225f8083b5", "0dc4b82cf831"},
			{"37eb066adc4f", "c944e9de58a6", "2ac94b0ae5e6", "5534c10fb983", "a85b5ed33948", "87a26c090367", "3cf506b4e6c2", "d6926304e629"},
			{"7736fa8ad2e1", "72022e8f0e2a", "a87578773f3d", "5646d6251dbc", "a1f60fac8b9e", "beb2988e46d8", "f7630ae37664", "343a29383bba"},
		}},
		{"f2tree-dual", dualToR, 6, [3][]string{
			{"c505dcad4cb0", "2f9d5aefa71c", "9b8a9cef68af", "14b6d0703943", "1bbe440408c4", "cfbf9bf012c9", "3719d35f87f2", "e1f2f2423a65"},
			{"1cae5deee519", "bb8b5643cffc", "1cfded798d0f", "1a900a9a614a", "42d569275920", "58cac8439d14", "76b7e79e5914", "a79becc31872"},
			{"60c1f7ad59ba", "8a9880d67056", "fcbfaebae597", "22e6ba1a78fc", "f36b772fa4ea", "f5f1bf43ab21", "00b02fb0fe3f", "6d33283c369c"},
		}},
	} {
		for ci, c := range configs {
			t.Run(fmt.Sprintf("churn/%s/%d/%s", tc.name, tc.n, c.name), func(t *testing.T) {
				tp, err := tc.build(tc.n)
				if err != nil {
					t.Fatal(err)
				}
				s, nw, d := buildBGP(t, tp, c.cfg)
				got := churnHashes(t, s, nw, d)
				if fmt.Sprint(got) != fmt.Sprint(tc.want[ci]) {
					t.Errorf("state hashes under churn:\n got  %q\n want %q", got, tc.want[ci])
				}
			})
		}
	}
}

// fabricLinks returns the live switch-to-switch links in LinkID order.
func fabricLinks(tp *topo.Topology) []topo.LinkID {
	var fabric []topo.LinkID
	for _, l := range tp.LiveLinks() {
		if tp.Node(l.A).Kind != topo.Host && tp.Node(l.B).Kind != topo.Host {
			fabric = append(fabric, l.ID)
		}
	}
	return fabric
}

// churnHashes drives 40 seeded steps — fail or restore a fabric link, flap
// one for 30 ms, crash or restart a speaker — and returns the state hash
// after every fifth.
func churnHashes(t *testing.T, s *sim.Simulator, nw *network.Network, d *Domain) []string {
	t.Helper()
	tp := nw.Topology()
	fabric := fabricLinks(tp)
	var switches []topo.NodeID
	for _, id := range tp.LiveNodes() {
		if tp.Node(id).Kind != topo.Host {
			switches = append(switches, id)
		}
	}
	rng := rand.New(rand.NewSource(20150629))
	var hashes []string
	var crashed []topo.NodeID
	for step := 1; step <= 40; step++ {
		switch k := rng.Intn(10); {
		case k < 5:
			link := fabric[rng.Intn(len(fabric))]
			up := !nw.LinkUp(link)
			s.After(0, func(sim.Time) { nw.SetLinkState(link, up) })
		case k < 7:
			link := fabric[rng.Intn(len(fabric))]
			up := !nw.LinkUp(link)
			s.After(0, func(sim.Time) { nw.SetLinkState(link, up) })
			s.After(30*time.Millisecond, func(sim.Time) { nw.SetLinkState(link, !up) })
		default:
			node := switches[rng.Intn(len(switches))]
			if len(crashed) > 0 && rng.Intn(2) == 0 {
				node, crashed = crashed[0], crashed[1:] // restart the longest-dead speaker
			} else if !d.NodeDown(node) {
				crashed = append(crashed, node)
			}
			s.After(0, func(now sim.Time) { d.SetNodeDown(now, node, !d.NodeDown(node)) })
		}
		run := time.Duration(20+rng.Intn(381)) * time.Millisecond
		if err := s.Run(s.Now().Add(run)); err != nil {
			t.Fatal(err)
		}
		if step%5 == 0 {
			hashes = append(hashes, stateHash(d))
		}
	}
	return hashes
}
