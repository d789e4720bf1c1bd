package scenario

import (
	"bytes"
	"strings"
	"testing"
)

func parseOK(t *testing.T, doc string) *Scenario {
	t.Helper()
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseRejectsBadDocuments(t *testing.T) {
	for _, doc := range []string{
		``,
		`{}`,
		`{"scheme":"f2tree"}`,           // missing ports
		`{"scheme":"f2tree","ports":8}`, // missing flows
		`{"scheme":"f2tree","ports":8,"flows":[{"src":"leftmost","dst":"rightmost"}],"bogus":1}`,
	} {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q) accepted", doc)
		}
	}
}

func TestParseValidatesReferences(t *testing.T) {
	cases := map[string]string{
		"unknown action": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"explode"}]}`,
		"malformed condition": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"fail-condition","condition":"C99","flow":0}]}`,
		"condition not a label": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"fail-condition","condition":"banana","flow":0}]}`,
		"flow index out of range": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"fail-condition","condition":"C1","flow":7}]}`,
		"negative flow index": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"fail-condition","condition":"C1","flow":-1}]}`,
		"duplicate flows": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"},
			         {"src":"leftmost","dst":"rightmost"}]}`,
		"negative event time": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":-5,"action":"fail-switch","node":"agg-p0-0"}]}`,
		"event past horizon": `{"scheme":"f2tree","ports":8,"horizonMs":500,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":900,"action":"fail-switch","node":"agg-p0-0"}]}`,
		"event past default horizon": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":2500,"action":"fail-switch","node":"agg-p0-0"}]}`,
		"fail-link missing endpoint": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"fail-link","a":"agg-p0-0"}]}`,
		"fail-switch missing node": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost"}],
			"events":[{"atMs":1,"action":"fail-switch"}]}`,
		"flow missing dst": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost"}]}`,
		"negative flow interval": `{"scheme":"f2tree","ports":8,
			"flows":[{"src":"leftmost","dst":"rightmost","intervalUs":-3}]}`,
		"unknown control plane": `{"scheme":"f2tree","ports":8,"controlPlane":"rip",
			"flows":[{"src":"leftmost","dst":"rightmost"}]}`,
		"negative horizon": `{"scheme":"f2tree","ports":8,"horizonMs":-1,
			"flows":[{"src":"leftmost","dst":"rightmost"}]}`,
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, doc)
		}
	}
	// Reverse flows are distinct, not duplicates.
	parseOK(t, `{"scheme":"f2tree","ports":8,
		"flows":[{"src":"leftmost","dst":"rightmost"},
		         {"src":"rightmost","dst":"leftmost"}]}`)
}

func TestRunConditionScenario(t *testing.T) {
	sc := parseOK(t, `{
		"scheme": "f2tree", "ports": 8, "seed": 1,
		"flows": [{"src": "leftmost", "dst": "rightmost"}],
		"events": [{"atMs": 380, "action": "fail-condition", "condition": "C1", "flow": 0}]
	}`)
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 1 {
		t.Fatalf("flows = %d", len(rep.Flows))
	}
	f := rep.Flows[0]
	if f.LossMs < 55 || f.LossMs > 80 {
		t.Fatalf("loss = %v ms, want ≈ 60", f.LossMs)
	}
	if f.Sent == 0 || f.Delivered == 0 || f.Delivered >= int(f.Sent) {
		t.Fatalf("counters wrong: %+v", f)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "connectivityLossMs") {
		t.Fatal("report JSON malformed")
	}
}

func TestRunNamedLinkAndSwitchEvents(t *testing.T) {
	sc := parseOK(t, `{
		"scheme": "fattree", "ports": 4, "seed": 1, "horizonMs": 1500,
		"controlPlane": "ospf",
		"flows": [{"src": "host-p0-t0-0", "dst": "host-p3-t1-1"}],
		"events": [
			{"atMs": 300, "action": "fail-switch", "node": "agg-p3-0"},
			{"atMs": 300, "action": "fail-switch", "node": "agg-p3-1"},
			{"atMs": 900, "action": "restore-link", "a": "agg-p3-0", "b": "tor-p3-1"}
		]
	}`)
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flows[0].Delivered == 0 {
		t.Fatal("flow never delivered")
	}
	if rep.Drops == 0 {
		t.Fatal("switch failure should drop packets")
	}
}

func TestRunBGPControlPlane(t *testing.T) {
	sc := parseOK(t, `{
		"scheme": "f2tree", "ports": 8, "controlPlane": "bgp",
		"flows": [{"src": "leftmost", "dst": "rightmost", "intervalUs": 1000}],
		"events": [{"atMs": 380, "action": "fail-condition", "condition": "C1", "flow": 0}]
	}`)
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flows[0].LossMs < 55 || rep.Flows[0].LossMs > 80 {
		t.Fatalf("loss under BGP = %v ms, want ≈ 60", rep.Flows[0].LossMs)
	}
}

func TestRunRejectsBadReferences(t *testing.T) {
	bads := []string{
		`{"scheme":"x","ports":8,"flows":[{"src":"leftmost","dst":"rightmost"}]}`,
		`{"scheme":"f2tree","ports":8,"controlPlane":"rip","flows":[{"src":"leftmost","dst":"rightmost"}]}`,
		`{"scheme":"f2tree","ports":8,"flows":[{"src":"nope","dst":"rightmost"}]}`,
		`{"scheme":"f2tree","ports":8,"flows":[{"src":"leftmost","dst":"rightmost"}],
		  "events":[{"atMs":1,"action":"fail-condition","condition":"C9","flow":0}]}`,
		`{"scheme":"f2tree","ports":8,"flows":[{"src":"leftmost","dst":"rightmost"}],
		  "events":[{"atMs":1,"action":"fail-condition","condition":"C1","flow":5}]}`,
		`{"scheme":"f2tree","ports":8,"flows":[{"src":"leftmost","dst":"rightmost"}],
		  "events":[{"atMs":1,"action":"fail-link","a":"tor-p0-0","b":"tor-p1-0"}]}`,
		`{"scheme":"f2tree","ports":8,"flows":[{"src":"leftmost","dst":"rightmost"}],
		  "events":[{"atMs":1,"action":"explode"}]}`,
		// Conditions that need the F²Tree ring parse and schedule fine; they
		// only fail when the fault callback resolves them mid-run.
		`{"scheme":"fattree","ports":4,"flows":[{"src":"leftmost","dst":"rightmost"}],
		  "events":[{"atMs":380,"action":"fail-condition","condition":"C6","flow":0}]}`,
		`{"scheme":"fattree","ports":4,"flows":[{"src":"leftmost","dst":"rightmost"}],
		  "events":[{"atMs":380,"action":"fail-condition","condition":"C7","flow":0}]}`,
	}
	for _, doc := range bads {
		sc, err := Parse(strings.NewReader(doc))
		if err != nil {
			continue // rejected at parse time: also fine
		}
		if _, err := Run(sc); err == nil {
			t.Errorf("Run accepted %q", doc)
		}
	}
}

// TestRunLossMeasuredFromFirstFailure: both aggregation switches of the
// destination pod die and never come back, so the outage runs from the
// first failing event to the horizon — a restore-link before it, or a
// failure at 0 ms followed by a later event, must not move that start.
func TestRunLossMeasuredFromFirstFailure(t *testing.T) {
	cases := []struct {
		name, events string
		wantMs       float64
	}{
		{"restore-link before the failure", `
			{"atMs": 100, "action": "restore-link", "a": "agg-p3-0", "b": "tor-p3-1"},
			{"atMs": 300, "action": "fail-switch", "node": "agg-p3-0"},
			{"atMs": 300, "action": "fail-switch", "node": "agg-p3-1"}`, 1200},
		{"failure at 0 ms", `
			{"atMs": 0, "action": "fail-switch", "node": "agg-p3-0"},
			{"atMs": 0, "action": "fail-switch", "node": "agg-p3-1"},
			{"atMs": 500, "action": "fail-link", "a": "agg-p0-0", "b": "tor-p0-1"}`, 1500},
	}
	for _, c := range cases {
		sc := parseOK(t, `{
			"scheme": "fattree", "ports": 4, "seed": 1, "horizonMs": 1500,
			"flows": [{"src": "host-p0-t0-0", "dst": "host-p3-t1-1"}],
			"events": [`+c.events+`]}`)
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := rep.Flows[0].LossMs; got < c.wantMs-10 || got > c.wantMs {
			t.Errorf("%s: loss = %v ms, want ≈ %v", c.name, got, c.wantMs)
		}
	}
}

func TestMultipleFlowsIndependentPorts(t *testing.T) {
	sc := parseOK(t, `{
		"scheme": "fattree", "ports": 4, "horizonMs": 300,
		"flows": [
			{"src": "leftmost", "dst": "rightmost", "intervalUs": 500},
			{"src": "rightmost", "dst": "leftmost", "intervalUs": 500},
			{"src": "host-p1-t0-0", "dst": "host-p2-t1-1", "intervalUs": 500}
		]
	}`)
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 3 {
		t.Fatalf("flows = %d", len(rep.Flows))
	}
	for i, f := range rep.Flows {
		if f.Delivered == 0 {
			t.Fatalf("flow %d delivered nothing", i)
		}
	}
}
