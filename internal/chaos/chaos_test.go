package chaos

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/exp"
	"repro/internal/fib"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestScenarioRoundTrip(t *testing.T) {
	sc := &Scenario{
		Scheme: "f2tree", Ports: 8, Control: exp.ControlOSPF, Seed: 7,
		BudgetMs: 250, EqualPrefixBackup: true,
		Flows: []exp.Flow{{Src: "leftmost", Dst: "rightmost", IntervalUs: 500}},
		Faults: []Fault{
			{Kind: FaultLinkDown, AtMs: 400, A: "agg-p0-0", B: "tor-p0-1"},
			{Kind: FaultGray, AtMs: 300, EndMs: 800, A: "agg-p0-0", B: "tor-p0-0", Prob: 0.5},
			{Kind: FaultCrash, AtMs: 500, EndMs: 900, Node: "agg-p1-0"},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, sc); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip mismatch:\n  wrote %+v\n  read  %+v", sc, back)
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{Scheme: "f2tree", Ports: 8}
	}
	cases := map[string]func(*Scenario){
		"missing scheme":         func(sc *Scenario) { sc.Scheme = "" },
		"unknown control":        func(sc *Scenario) { sc.Control = "rip" },
		"negative horizon":       func(sc *Scenario) { sc.HorizonMs = -1 },
		"flow missing dst":       func(sc *Scenario) { sc.Flows = []exp.Flow{{Src: "leftmost"}} },
		"duplicate flow":         func(sc *Scenario) { sc.Flows = []exp.Flow{{Src: "a", Dst: "b"}, {Src: "a", Dst: "b"}} },
		"negative flow interval": func(sc *Scenario) { sc.Flows = []exp.Flow{{Src: "a", Dst: "b", IntervalUs: -1}} },
		"unknown fault kind":     func(sc *Scenario) { sc.Faults = []Fault{{Kind: "emp", AtMs: 100}} },
		"negative fault time":    func(sc *Scenario) { sc.Faults = []Fault{{Kind: FaultLinkDown, AtMs: -5, A: "x", B: "y"}} },
		"window closes before open": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultGray, AtMs: 500, EndMs: 400, A: "x", B: "y", Prob: 0.5}}
		},
		"window past horizon": func(sc *Scenario) {
			sc.HorizonMs = 600
			sc.Faults = []Fault{{Kind: FaultGray, AtMs: 500, EndMs: 800, A: "x", B: "y", Prob: 0.5}}
		},
		"link fault missing endpoint": func(sc *Scenario) { sc.Faults = []Fault{{Kind: FaultLinkDown, AtMs: 100, A: "x"}} },
		"gray without window":         func(sc *Scenario) { sc.Faults = []Fault{{Kind: FaultGray, AtMs: 100, A: "x", B: "y", Prob: 0.5}} },
		"gray prob out of range": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultGray, AtMs: 100, EndMs: 200, A: "x", B: "y", Prob: 1.5}}
		},
		"flap without period": func(sc *Scenario) { sc.Faults = []Fault{{Kind: FaultFlap, AtMs: 100, EndMs: 400, A: "x", B: "y"}} },
		"crash without node":  func(sc *Scenario) { sc.Faults = []Fault{{Kind: FaultCrash, AtMs: 100}} },
		"hello-suppress without node": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultHelloSuppress, AtMs: 100, EndMs: 300}}
		},
		"lsa-delay out of range": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultLSADelay, AtMs: 100, EndMs: 300, DelayMs: 9000}}
		},
		"ospf fault under bgp": func(sc *Scenario) {
			sc.Control = exp.ControlBGP
			sc.Faults = []Fault{{Kind: FaultLSADrop, AtMs: 100, EndMs: 300}}
		},
		"crash under centralized": func(sc *Scenario) {
			sc.Control = exp.ControlCentralized
			sc.Faults = []Fault{{Kind: FaultCrash, AtMs: 100, Node: "x"}}
		},
		"ctrl-crash without restart": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultCtrlCrash, AtMs: 100, Node: "x"}}
		},
		"false-detect without window": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultFalseDetect, AtMs: 100, A: "x", B: "y"}}
		},
		"flap-storm without period": func(sc *Scenario) {
			sc.Faults = []Fault{{Kind: FaultFlapStorm, AtMs: 100, EndMs: 400}}
		},
		"gr without bgp": func(sc *Scenario) {
			sc.GR = &bgp.GRSpec{}
		},
		"equal-prefix backup with fast reroute disabled": func(sc *Scenario) {
			sc.EqualPrefixBackup, sc.DisableFastReroute = true, true
		},
		"bad detector": func(sc *Scenario) {
			sc.Detector = &detect.Spec{Mode: "quantum"}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			sc := base()
			mutate(sc)
			if err := sc.Validate(); err == nil {
				t.Fatalf("%s: Validate accepted %+v", name, sc)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario must be valid: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"scheme":"f2tree","ports":8,"bogus":1}`))
	if err == nil {
		t.Fatal("Parse accepted unknown field")
	}
}

// TestCleanRunsSatisfyOracles runs a benign fail+repair scenario under all
// three control planes: the oracles must stay silent because every
// disruption sits inside a disturbed window.
func TestCleanRunsSatisfyOracles(t *testing.T) {
	for _, control := range []string{exp.ControlOSPF, exp.ControlBGP, exp.ControlCentralized} {
		t.Run(control, func(t *testing.T) {
			sc := &Scenario{
				Scheme: "f2tree", Ports: 8, Control: control, Seed: 11,
				Faults: []Fault{
					{Kind: FaultLinkDown, AtMs: 400, EndMs: 900, A: "agg-p0-0", B: "tor-p0-0"},
				},
			}
			v, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if v.Violated() {
				t.Fatalf("clean run violated: %+v", v.Violations)
			}
			if v.Sent == 0 || v.Delivered == 0 {
				t.Fatalf("no traffic flowed: %+v", v)
			}
		})
	}
}

// TestFaultlessRunDeliversEverything is the baseline: no faults, no drops,
// no violations.
func TestFaultlessRunDeliversEverything(t *testing.T) {
	v, err := RunScenario(&Scenario{Scheme: "fattree", Ports: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v.Violated() {
		t.Fatalf("faultless run violated: %+v", v.Violations)
	}
	if v.Drops != 0 {
		t.Fatalf("faultless run dropped %d packets", v.Drops)
	}
	if v.Sent == 0 || v.Sent != v.Delivered {
		t.Fatalf("conservation counters off: sent %d delivered %d", v.Sent, v.Delivered)
	}
}

// TestRunIsDeterministic reruns one scenario and requires byte-identical
// trace hashes and verdicts.
func TestRunIsDeterministic(t *testing.T) {
	sc := &Scenario{
		Scheme: "f2tree", Ports: 8, Seed: 21,
		Faults: []Fault{
			{Kind: FaultGray, AtMs: 300, EndMs: 900, A: "agg-p0-0", B: "tor-p0-0", Prob: 0.6},
			{Kind: FaultFlap, AtMs: 400, EndMs: 1000, A: "core-g0-0", B: "agg-p0-0", PeriodMs: 60},
		},
	}
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hashes differ: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ:\n  %+v\n  %+v", a, b)
	}
}

// TestKnownBadLoopsAndShrinks is the end-to-end demonstration: the
// equal-prefix ablation under C4 must trip the loop oracle, and the
// shrinker must strip the decoy faults down to the two load-bearing
// link-downs.
func TestKnownBadLoopsAndShrinks(t *testing.T) {
	sc, err := KnownBad(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 4 {
		t.Fatalf("demo should carry 2 C4 faults + 2 decoys, has %d", len(sc.Faults))
	}
	var lab *core.Lab
	v, err := RunScenarioOpts(sc, RunOpts{OnFinish: func(l *core.Lab) { lab = l }})
	if err != nil {
		t.Fatal(err)
	}
	// Every listed loop names the switch that expired the packet and the
	// hops it made, read from the packet before it was recycled: a loop
	// burns the whole TTL, and a recycled packet would read 0 hops.
	ttl := lab.Net.Config().TTL
	if ttl != 64 {
		t.Fatalf("network TTL = %d, want 64", ttl)
	}
	listed := regexp.MustCompile(`^TTL expiry at \d+ ms on (\S+) after (\d+) hops, outside any disturbed window$`)
	looped := false
	for _, viol := range v.Violations {
		if viol.Oracle != "loop" {
			continue
		}
		looped = true
		if viol.AtMs == 0 {
			continue // the "N more" summary line
		}
		m := listed.FindStringSubmatch(viol.Detail)
		if m == nil {
			t.Fatalf("loop detail %q does not name a switch and a hop count", viol.Detail)
		}
		if nd := lab.Topo.FindNode(m[1]); nd == nil || nd.Kind == topo.Host {
			t.Errorf("loop detail %q: %s is not a switch", viol.Detail, m[1])
		}
		if m[2] != strconv.Itoa(ttl) {
			t.Errorf("loop detail %q: hops %s, want the TTL %d", viol.Detail, m[2], ttl)
		}
	}
	if !looped {
		t.Fatalf("known-bad scenario did not trip the loop oracle: %+v", v.Violations)
	}

	res, err := Shrink(sc, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("Shrink says the scenario does not violate")
	}
	if got := len(res.Scenario.Faults); got > 3 {
		t.Fatalf("shrunk repro has %d faults, want ≤ 3", got)
	}
	for _, f := range res.Scenario.Faults {
		if f.Kind != FaultLinkDown {
			t.Fatalf("decoy fault %s survived shrinking: %+v", f.Kind, res.Scenario.Faults)
		}
	}
	if !res.Verdict.Violated() {
		t.Fatal("shrunk scenario no longer violates")
	}
}

// TestFuzzSmoke generates and runs a few seeded scenarios per control
// plane; correct configurations must satisfy every oracle.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz smoke is slow")
	}
	for _, control := range []string{exp.ControlOSPF, exp.ControlBGP, exp.ControlCentralized} {
		for rep := 0; rep < 3; rep++ {
			seed := exp.ChaosSeed(1, exp.SchemeF2Tree, 8, control, rep)
			sc, err := Generate(FuzzConfig{Scheme: "f2tree", Ports: 8, Control: control}, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", control, rep, err)
			}
			v, err := RunScenario(sc)
			if err != nil {
				t.Fatalf("%s/%d: %v", control, rep, err)
			}
			if v.Violated() {
				var buf bytes.Buffer
				_ = Write(&buf, sc)
				t.Fatalf("%s/%d violated:\n%v\nscenario:\n%s", control, rep, v.Violations, buf.String())
			}
		}
	}
}

// TestRestartKeepsRackPeerRouteUnderEqualPrefix: the equal-prefix ablation
// swaps the ring routes, not the dual-ToR attachment. A rack ToR that crashes
// and restarts reloads its static configuration from lab.Plan, which must
// still hold the rack peer route.
func TestRestartKeepsRackPeerRouteUnderEqualPrefix(t *testing.T) {
	tp, err := exp.BuildTopology(exp.SchemeF2TreeDual, 6)
	if err != nil {
		t.Fatal(err)
	}
	rack := tp.Racks[0]
	tor := rack.ToRs[0]
	sc := &Scenario{
		Scheme: string(exp.SchemeF2TreeDual), Ports: 6, EqualPrefixBackup: true,
		Faults: []Fault{{Kind: FaultCrash, AtMs: 300, EndMs: 600, Node: tp.Node(tor).Name}},
	}
	found := false
	_, err = RunScenarioOpts(sc, RunOpts{OnFinish: func(lab *core.Lab) {
		for _, r := range lab.Net.Table(tor).Routes() {
			if r.Source == fib.Static && r.Prefix == rack.Subnet {
				found = true
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("%s lost its static route for rack subnet %v after restart", tp.Node(tor).Name, rack.Subnet)
	}
}

// TestDropsChargedToTheirFlow checks the flow each dropped packet is
// attributed to. A second drop observer, registered after the run's own,
// counts each drop under the flow key it reads while the packet is live;
// every flow's Dropped must equal its key's count, and every drop must
// belong to a scenario flow. An attribution that read a recycled packet
// would charge a poisoned flow key that no scenario flow has.
func TestDropsChargedToTheirFlow(t *testing.T) {
	// Injected loss on every uplink of both probe hosts' ToRs, whichever
	// aggregation switch a flow hashes to, plus a flapping uplink.
	sc := &Scenario{Scheme: "f2tree", Ports: 8, Seed: 21}
	for _, tor := range []struct{ name, pod string }{{"tor-p0-0", "p0"}, {"tor-p5-2", "p5"}} {
		for k := 0; k < 4; k++ {
			sc.Faults = append(sc.Faults, Fault{Kind: FaultGray, AtMs: 300, EndMs: 600,
				A: tor.name, B: "agg-" + tor.pod + "-" + strconv.Itoa(k), Prob: 0.3})
		}
	}
	sc.Faults = append(sc.Faults, Fault{Kind: FaultFlap, AtMs: 400, EndMs: 1000, A: "tor-p0-0", B: "agg-p0-0", PeriodMs: 60})
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := setup(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[fib.FlowKey]uint64)
	r.lab.Net.OnDrop(func(_ sim.Time, _ topo.NodeID, pkt *network.Packet, _ network.DropCause) {
		seen[pkt.Flow]++
	})
	v, err := r.execute(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var charged uint64
	for i, fr := range r.flows {
		key := fr.Source.FlowKey()
		if got, want := v.Flows[i].Dropped, seen[key]; got != want {
			t.Errorf("flow %d (%s→%s): %d drops charged, %d dropped", i, v.Flows[i].Src, v.Flows[i].Dst, got, want)
		}
		if seen[key] == 0 {
			t.Errorf("flow %d (%s→%s) lost nothing: the faults miss it", i, v.Flows[i].Src, v.Flows[i].Dst)
		}
		charged += seen[key]
	}
	if charged != v.Drops {
		t.Errorf("%d of %d drops belong to no scenario flow", v.Drops-charged, v.Drops)
	}
}
