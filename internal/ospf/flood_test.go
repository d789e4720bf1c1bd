package ospf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// floodMix is a fixed avalanche of a hop's identity, so the test filters
// are pure functions of (from, to, lsa.Seq): what a hop suffers depends on
// nothing the flood implementation controls.
func floodMix(from, to topo.NodeID, seq uint64) uint64 {
	x := uint64(from)<<40 ^ uint64(to)<<20 ^ seq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// floodFilters are the fault filters TestFloodOrderPinned floods through.
var floodFilters = map[string]func(from, to topo.NodeID, lsa *LSA) (bool, time.Duration){
	// Untouched flooding: every hop of a flood call lands FloodHopDelay later.
	"pass": func(topo.NodeID, topo.NodeID, *LSA) (bool, time.Duration) { return false, 0 },
	// About one hop in seven is lost and the rest spread over three
	// delays, so one flood call lands at several instants and newer LSAs
	// overtake older ones.
	"mixed": func(from, to topo.NodeID, lsa *LSA) (bool, time.Duration) {
		switch floodMix(from, to, lsa.Seq) % 7 {
		case 0:
			return true, 0
		case 1, 2:
			return false, 0
		case 3, 4:
			return false, 3 * time.Millisecond
		default:
			return false, 7 * time.Millisecond
		}
	},
	// Two different negative delays, both below -FloodHopDelay: the
	// simulator clamps both to "now", so all hops of a call share one
	// instant although their raw delays differ.
	"clamped": func(from, to topo.NodeID, lsa *LSA) (bool, time.Duration) {
		if floodMix(from, to, lsa.Seq)%2 == 0 {
			return false, -2 * time.Millisecond
		}
		return false, -5 * time.Millisecond
	},
}

// TestFloodOrderPinned pins the order in which LSAs travel. Every accepted
// receive re-floods through the FloodFilter, so the sequence of
// (now, from, to, origin, seq) the filter is offered is a complete record
// of delivery order that does not depend on how deliveries are represented
// in the simulator. The hash also covers where the flood ended up: every
// instance's LSDB, how many SPF runs it made and when the last one ran.
//
// The schedule fails 12 fabric links 17 ms apart from t=100 ms — inside the
// 60 ms detection window, so floods cross wires that are dead but believed
// up — restores them while SPF holds run, crashes an aggregation switch's
// instance at 150 ms and restarts it (empty LSDB) at 900 ms, and refreshes
// every LSA at 4 s. The constants were captured with one simulator event
// per hop; any change to flooding must reproduce them.
func TestFloodOrderPinned(t *testing.T) {
	build := func(f func(int) (*topo.Topology, error), n int, dual bool) *topo.Topology {
		tp, err := f(n)
		if err != nil {
			t.Fatal(err)
		}
		if dual {
			if err := topo.MakeDualToR(tp); err != nil {
				t.Fatal(err)
			}
		}
		return tp
	}
	for _, tc := range []struct {
		name     string
		tp       *topo.Topology
		filter   string
		wantHops int
		wantHash string
	}{
		{"fattree4/pass", build(topo.FatTree, 4, false), "pass", 2187, "2a960e93d98e7531"},
		{"fattree4/mixed", build(topo.FatTree, 4, false), "mixed", 1980, "fc768f34e92b0e9e"},
		{"f2tree6/pass", build(topo.F2Tree, 6, false), "pass", 7110, "357e1d093fabb275"},
		{"f2tree6/mixed", build(topo.F2Tree, 6, false), "mixed", 7034, "7496de6222c5d699"},
		{"f2tree6/clamped", build(topo.F2Tree, 6, false), "clamped", 7110, "cd509f7a36f2eae4"},
		{"f2tree8/pass", build(topo.F2Tree, 8, false), "pass", 30548, "940d95153c3d44e4"},
		{"f2tree8/mixed", build(topo.F2Tree, 8, false), "mixed", 30548, "0159e014b13e0802"},
		{"dualtor6/pass", build(topo.F2Tree, 6, true), "pass", 7861, "63f2d2ded9458809"},
		{"dualtor6/mixed", build(topo.F2Tree, 6, true), "mixed", 7779, "1e3e4a85890b26ef"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.tp
			s := sim.New(7)
			nw := mustNetwork(t, s, tp)
			dom := NewDomain(nw, Config{})
			if err := dom.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(vs ...uint64) {
				var b [8]byte
				for _, v := range vs {
					binary.LittleEndian.PutUint64(b[:], v)
					h.Write(b[:])
				}
			}
			hops, filter := 0, floodFilters[tc.filter]
			dom.SetFloodFilter(func(now sim.Time, from, to topo.NodeID, lsa *LSA) (bool, time.Duration) {
				hops++
				put(uint64(now), uint64(from), uint64(to), uint64(lsa.Origin), lsa.Seq)
				return filter(from, to, lsa)
			})

			fabric := fabricLinksOf(tp, func(*topo.Node) bool { return true })
			const faults = 12
			for k := 0; k < faults; k++ {
				link := fabric[k*len(fabric)/faults]
				failAt := 100*sim.Millisecond + sim.Time(k)*17*sim.Millisecond
				s.At(failAt, func(sim.Time) { nw.FailLink(link) })
				s.At(failAt+450*sim.Millisecond+sim.Time(k)*113*sim.Millisecond, func(sim.Time) { nw.RestoreLink(link) })
			}
			agg := tp.NodesOfKind(topo.Agg)[1]
			s.At(150*sim.Millisecond, func(now sim.Time) { dom.SetNodeDown(now, agg, true) })
			s.At(900*sim.Millisecond, func(now sim.Time) { dom.SetNodeDown(now, agg, false) })
			s.At(4*sim.Second, dom.RefreshAll)
			if err := s.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}

			for _, id := range tp.LiveNodes() {
				inst := dom.Instance(id)
				if inst == nil {
					continue
				}
				for _, lsa := range inst.lsdb {
					if lsa != nil {
						put(uint64(id), uint64(lsa.Origin), lsa.Seq, uint64(len(lsa.Adjacencies)))
					}
				}
				put(uint64(inst.SPFRuns()), uint64(inst.lastSPFAt))
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; hops != tc.wantHops || got != tc.wantHash {
				t.Errorf("flood order moved: %d hops offered, hash %s; pinned %d, %s", hops, got, tc.wantHops, tc.wantHash)
			}
		})
	}
}

// TestFloodAllocBudget pins what flooding one LSA across a converged domain
// may allocate: the LSA and its slices. Nothing is allocated per hop, per
// neighbor or per receiving router — flood records, their hop lists and the
// simulator's items are all recycled — although one ToR origination on
// F²Tree N=8 crosses 307 hops to reach the other 53 switches. With one
// closure per hop this read 312.
//
// SPFDelay is an hour so that no SPF runs (and allocates its routes) inside
// the measurement; every instance's timer is armed during warm-up.
func TestFloodAllocBudget(t *testing.T) {
	const budget = 5 // LSA, Adjacencies grown 1→2→4 for four uplinks, Prefixes
	tp, err := topo.F2Tree(8)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(7)
	dom := NewDomain(mustNetwork(t, s, tp), Config{SPFDelay: time.Hour})
	if err := dom.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	tor := dom.Instance(tp.NodesOfKind(topo.ToR)[0])
	wave := func() {
		tor.originate(s.Now())
		if err := s.Run(s.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		wave()
	}
	if got := testing.AllocsPerRun(10, wave); got > budget {
		t.Errorf("one flooded origination allocates %.0f objects, budget %d", got, budget)
	}
	for _, inst := range dom.instances {
		if inst != nil && inst.lsaOf(tor.node).Seq != tor.seq {
			t.Fatalf("node %d holds seq %d of the ToR's LSA, want %d: the wave did not reach it", inst.node, inst.lsaOf(tor.node).Seq, tor.seq)
		}
	}
}

// TestFloodStormStaysShallow fails every fabric link of the last pod of
// F²Tree(16) at one instant under OSPF, restores them, and runs each to
// quiescence: the flood storm of BenchmarkFlood/podburst/N=16. The event
// count pins what runs; how flood records are held outside the simulator's
// queue may change the queue's depth but never the events.
//
// The queue stays shallow because only the flood FIFO's head is an event:
// with every flood record scheduled it peaked at 24,711 pending, 24,445 of
// them flood records. It now peaks at 267: a held SPF timer on each of the
// 266 switches, plus the FIFO's head.
func TestFloodStormStaysShallow(t *testing.T) {
	const wantEvents = 65631
	const maxPending = 1000
	tp, err := topo.F2Tree(16)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(7)
	nw := mustNetwork(t, s, tp)
	if err := NewDomain(nw, Config{}).Bootstrap(); err != nil {
		t.Fatal(err)
	}
	last := tp.Node(tp.NodesOfKind(topo.ToR)[len(tp.NodesOfKind(topo.ToR))-1]).Pod
	links := fabricLinksOf(tp, func(nd *topo.Node) bool {
		return nd.Pod == last && (nd.Kind == topo.ToR || nd.Kind == topo.Agg)
	})
	for _, up := range []bool{false, true} {
		s.After(0, func(sim.Time) {
			for _, l := range links {
				nw.SetLinkState(l, up)
			}
		})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d events, peak pending %d", s.EventsRun(), s.PeakPending())
	if got := s.EventsRun(); got != wantEvents {
		t.Errorf("pod burst ran %d events, pinned %d", got, wantEvents)
	}
	if got := s.PeakPending(); got > maxPending {
		t.Errorf("pod burst peaked at %d pending events, bound %d", got, maxPending)
	}
}
