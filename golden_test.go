// Golden digests of every driver's simulated output: the definition of
// "byte-identical behaviour" for refactors of the run-assembly code (lab
// construction, probe attachment, fault-on-path injection). Each constant
// was captured by running this file at the commit before the run paths were
// folded into exp.NewLab; the file uses only names that exist on both sides
// of that change, so it can be copied to the older tree and run there.
package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/failure"
	"repro/internal/scenario"
)

// goldenSimDoc is the example document of `f2tree-lab sim`'s usage text.
const goldenSimDoc = `{
  "scheme": "f2tree", "ports": 8, "seed": 1,
  "flows": [{"src": "leftmost", "dst": "rightmost"}],
  "events": [
    {"atMs": 380, "action": "fail-condition", "condition": "C1", "flow": 0},
    {"atMs": 900, "action": "fail-switch", "node": "agg-p0-1"}
  ]
}`

// goldenSimBGPDoc exercises the other event kinds under another control
// plane, with two flows sharing a host stack.
const goldenSimBGPDoc = `{
  "scheme": "f2tree", "ports": 6, "seed": 3, "controlPlane": "bgp", "horizonMs": 1500,
  "flows": [{"src": "leftmost", "dst": "rightmost", "sizeBytes": 512, "intervalUs": 250},
            {"src": "rightmost", "dst": "host-p0-t0-0"}],
  "events": [
    {"atMs": 300, "action": "fail-link", "a": "tor-p0-0", "b": "agg-p0-0"},
    {"atMs": 900, "action": "restore-link", "a": "tor-p0-0", "b": "agg-p0-0"}
  ]
}`

var golden = map[string]string{
	"chaos internal/chaos/scenarios/bfd-flap-under-load.json":   "2acfef1ccec73e1603a9617df76f2fa10a246319a881347997cd3a361cad1e13",
	"chaos internal/chaos/testdata/equal-prefix-c4-shrunk.json": "4d9e052ad83aa0bcb629ccfbdff1f2d35a9986bda72f8dbca6b975b7bf4bfacf",
	"fuzz bgp seed=1":                   "c811c0b48643983cd80f0d89ad810f2b79a4d7111912e8e7938d5090905d4896",
	"fuzz bgp seed=2":                   "dcb532f6254ce75e633486e48603a84253827d966b788994216d533046fd0d6c",
	"fuzz bgp seed=3":                   "7a644028782f5ef6d9499409a7d6f98e59d19cd9552dbb6b0a16f31a3f1b2086",
	"fuzz centralized seed=1":           "95307b5058d24360ee3345f494560fff10b7e788c305880766e2e43ffce79a91",
	"fuzz centralized seed=2":           "65001a98630aa61205ccfb6d7b532e802428b77b1070329a5d4289ac9ff81123",
	"fuzz centralized seed=3":           "cdd2a5234e4ba1a910bd1af80c878de2ea5ca320dd443f8817b466c10cea7e16",
	"fuzz ospf seed=1":                  "a729db24131f8c0207c8aac5768252f9518d69383d0e596b1145256eeafd7626",
	"fuzz ospf seed=2":                  "e9d433b85ab610250ac48b66ff73dc76fc89980486726befe4304068ca424ae9",
	"fuzz ospf seed=3":                  "2bc1d95f68c27d35d434064a65de70a38b33f3ec1ea1ca47b7b47a09cf969761",
	"recovery f2tree-proto bgp":         `{"collapse_ms":200,"connectivity_loss_ms":60.117904,"goodput_mbps":112.353216,"packets_lost":602,"packets_sent":20000,"tcp_timeouts":1}`,
	"recovery f2tree-proto centralized": `{"collapse_ms":200,"connectivity_loss_ms":60.117904,"goodput_mbps":112.353216,"packets_lost":602,"packets_sent":20000,"tcp_timeouts":1}`,
	"recovery f2tree-proto ospf":        `{"collapse_ms":200,"connectivity_loss_ms":60.117904,"goodput_mbps":112.353216,"packets_lost":602,"packets_sent":20000,"tcp_timeouts":1}`,
	"recovery fattree bgp":              `{"collapse_ms":200,"connectivity_loss_ms":71.05024,"goodput_mbps":111.774016,"packets_lost":702,"packets_sent":20000,"tcp_timeouts":1}`,
	"recovery fattree centralized":      `{"collapse_ms":200,"connectivity_loss_ms":132.1,"goodput_mbps":108.182976,"packets_lost":1322,"packets_sent":20000,"tcp_timeouts":1}`,
	"recovery fattree ospf":             `{"collapse_ms":600,"connectivity_loss_ms":271.05024,"goodput_mbps":100.190016,"packets_lost":2702,"packets_sent":20000,"tcp_timeouts":2}`,
	"sim bgp":                           `{"topology":"f2tree-6","flows":[{"src":"host-p0-t0-0","dst":"host-p3-t1-2","sent":6000,"delivered":5999,"connectivityLossMs":0.25},{"src":"host-p3-t1-2","dst":"host-p0-t0-0","sent":15000,"delivered":14998,"connectivityLossMs":0.1}],"drops":0}`,
	"sim sample":                        `{"topology":"f2tree-8","flows":[{"src":"host-p0-t0-0","dst":"host-p5-t2-3","sent":20000,"delivered":18798,"connectivityLossMs":60.117}],"drops":1200}`,
	"smoke f2tree-proto rep=0":          `{"collapse_ms":200,"connectivity_loss_ms":60.117904,"goodput_mbps":108.0915911111111,"packets_lost":602,"packets_sent":9000,"tcp_timeouts":1}`,
	"smoke f2tree-proto rep=1":          `{"collapse_ms":200,"connectivity_loss_ms":60.117904,"goodput_mbps":108.0915911111111,"packets_lost":602,"packets_sent":9000,"tcp_timeouts":1}`,
	"smoke fattree rep=0":               `{"collapse_ms":540,"connectivity_loss_ms":271.05024,"goodput_mbps":81.06225777777777,"packets_lost":2702,"packets_sent":9000,"tcp_timeouts":1}`,
	"smoke fattree rep=1":               `{"collapse_ms":540,"connectivity_loss_ms":271.05024,"goodput_mbps":81.06225777777777,"packets_lost":2702,"packets_sent":9000,"tcp_timeouts":1}`,
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("some thirty simulations")
	}
	got := map[string]string{}

	for _, path := range []string{
		"internal/chaos/scenarios/bfd-flap-under-load.json",
		"internal/chaos/testdata/equal-prefix-c4-shrunk.json",
	} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := chaos.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		v, err := chaos.RunScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got["chaos "+path] = v.TraceHash
	}

	controls := []string{exp.ControlOSPF, exp.ControlBGP, exp.ControlCentralized}
	for _, control := range controls {
		for seed := int64(1); seed <= 3; seed++ {
			sc, err := chaos.Generate(chaos.FuzzConfig{Scheme: "f2tree", Ports: 6, Control: control}, seed)
			if err != nil {
				t.Fatal(err)
			}
			v, err := chaos.RunScenario(sc)
			if err != nil {
				t.Fatalf("fuzz %s/%d: %v", control, seed, err)
			}
			got[fmt.Sprintf("fuzz %s seed=%d", control, seed)] = v.TraceHash
		}
	}

	for name, doc := range map[string]string{"sim sample": goldenSimDoc, "sim bgp": goldenSimBGPDoc} {
		sc, err := scenario.Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = compactJSON(t, rep)
	}

	// RunRecovery under each control plane, spelled as campaign specs: the
	// runner's metric map is RunRecovery's loss, lost, collapse and timeouts.
	run := campaign.ExperimentRunner()
	for _, scheme := range []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Proto} {
		for _, control := range controls {
			m, _, err := run(campaign.Spec{
				Kind: campaign.KindRecovery, Scheme: string(scheme), Ports: 4,
				Condition: failure.C1.String(), Control: control, BaseSeed: 42,
			})
			if err != nil {
				t.Fatalf("recovery %s/%s: %v", scheme, control, err)
			}
			got[fmt.Sprintf("recovery %s %s", scheme, control)] = compactJSON(t, m)
		}
	}

	// The `f2tree-lab campaign -preset smoke` matrix.
	smoke := campaign.Matrix{
		Kind:       campaign.KindRecovery,
		Schemes:    []exp.Scheme{exp.SchemeFatTree, exp.SchemeF2Proto},
		Ports:      []int{4},
		Conditions: []failure.Condition{failure.C1},
		Reps:       2,
		BaseSeed:   42,
		HorizonMS:  900,
	}
	for _, s := range smoke.Expand() {
		m, _, err := run(s)
		if err != nil {
			t.Fatalf("smoke %s: %v", s.Key(), err)
		}
		got[fmt.Sprintf("smoke %s rep=%d", s.Scheme, s.Rep)] = compactJSON(t, m)
	}

	if len(got) != len(golden) {
		t.Errorf("computed %d digests, golden has %d", len(got), len(golden))
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("%s:\n  got  %s\n  want %s", name, got[name], want)
		}
	}
	if t.Failed() {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "\t%q: %q,\n", name, got[name])
		}
		t.Logf("computed digests:\n%s", b.String())
	}
}

func compactJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
