package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/failure"
)

// recoveryPins are sha256 digests of the JSON encoding of the complete
// RecoveryResult at N=8 with the default seed, split in two: result covers
// every field but TCPBins (every UDP bin and delay point, loss, collapse,
// sent, lost and timeouts), tcpBins the TCP flow's throughput bins alone.
// The root golden digests pin only the scalar metrics; these pin the series
// too, so a change to how probes are recorded or binned must leave them
// unedited. The bgp and centralized rows guard the other two control planes
// the same way: a change to how they schedule, pool or install must leave
// them too. A change to how the TCP sender shapes its segments may move a
// tcpBins digest, never a result digest.
var recoveryPins = []struct {
	scheme  Scheme
	cond    failure.Condition
	control string
	result  string
	tcpBins string
}{
	{SchemeFatTree, failure.C1, ControlOSPF,
		"add0d03e7da9655d481f6679c9ba708ca77250d7fbeabc8fe0efd47cfb283d7f",
		"c03baf384c439ed9e110729a5e43f40b3e342972baeb05f218f052fd3be62cfd"},
	{SchemeF2Tree, failure.C1, ControlOSPF,
		"981fbb86e9256906f56b649bb71f1f31cc5750045bd14f53f9dc228c55ce61f2",
		"57bc4515a1557bf6191efadebffd6dbbc3b35c171da8a64f5ad26290e5959187"},
	{SchemeF2Tree, failure.C7, ControlOSPF,
		"eb1c3862363debfcbb181fa1b862659fa98847aec336d63ddcacd4a38b932cec",
		"c03baf384c439ed9e110729a5e43f40b3e342972baeb05f218f052fd3be62cfd"},
	{SchemeFatTree, failure.C1, ControlBGP,
		"7530116583744f49fe51d59c5e01ca8a2e5801b467001efee04093c5412e817e",
		"414ac1855b4d6caaec7623341d846adc06d40da98efcfaa562820155c2c880f4"},
	{SchemeF2Tree, failure.C1, ControlBGP,
		"891ac7e6464b4c7e573199e508b1bb01a95f698d41d183157c575a92cde604f6",
		"414ac1855b4d6caaec7623341d846adc06d40da98efcfaa562820155c2c880f4"},
	{SchemeFatTree, failure.C1, ControlCentralized,
		"bc2d8102d27fecb12832ae30f41f89ca0e15d28dfb88a47a8cab48536c074c84",
		"414ac1855b4d6caaec7623341d846adc06d40da98efcfaa562820155c2c880f4"},
	{SchemeF2Tree, failure.C1, ControlCentralized,
		"7d00f9c7edbac220a572b03a860fc9b17dffcab0c069e963132a0d4d8652f308",
		"414ac1855b4d6caaec7623341d846adc06d40da98efcfaa562820155c2c880f4"},
}

func TestRecoveryResultPinned(t *testing.T) {
	for _, p := range recoveryPins {
		res, err := RunRecovery(RecoveryOptions{Scheme: p.scheme, Ports: 8, Condition: p.cond, Control: p.control})
		if err != nil {
			t.Fatalf("%s %v %s: %v", p.scheme, p.cond, p.control, err)
		}
		bins := res.TCPBins
		res.TCPBins = nil
		if got := jsonDigest(t, res); got != p.result {
			t.Errorf("%s %v %s: RecoveryResult digest without TCP bins = %s, want %s (%d UDP bins, %d delays)",
				p.scheme, p.cond, p.control, got, p.result, len(res.UDPBins), len(res.Delays))
		}
		if got := jsonDigest(t, bins); got != p.tcpBins {
			t.Errorf("%s %v %s: TCP bins digest = %s, want %s (%d bins)",
				p.scheme, p.cond, p.control, got, p.tcpBins, len(bins))
		}
	}
}

// jsonDigest is the hex sha256 of v's JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// recoveryFigures are the paper-facing numbers of the recovery matrix at
// N=8: Fig 4's connectivity loss and packets lost (UDP), its TCP collapse
// and RTO count, and the TCP flow's total bytes (the sum of its bins). Each
// cell is seeded as a campaign with base seed 42 seeds it (RecoverySeed),
// as the benchmark's recovery sweep does. It covers fat tree C1–C5 and
// F²Tree C1–C7 under OSPF, and the C1 cells plus F²Tree C7 under the other
// two control planes. Unlike recoveryPins it is a table a reader can check
// against RESULTS.md: a change that moves a number here changes what the
// paper comparison says.
var recoveryFigures = []struct {
	scheme     Scheme
	cond       failure.Condition
	control    string
	loss       string // ConnectivityLoss
	sent, lost uint64
	collapse   string // CollapseDuration
	timeouts   int
	tcpBytes   int
}{
	{SchemeFatTree, failure.C1, ControlOSPF, "271.05024ms", 20000, 2702, "600ms", 2, 28957104},
	{SchemeFatTree, failure.C2, ControlOSPF, "271.074048ms", 20000, 2702, "600ms", 2, 28957104},
	{SchemeFatTree, failure.C3, ControlOSPF, "272.085952ms", 20000, 2702, "600ms", 2, 28957104},
	{SchemeFatTree, failure.C4, ControlOSPF, "271.05024ms", 20000, 2702, "600ms", 2, 28957104},
	{SchemeFatTree, failure.C5, ControlOSPF, "271.05024ms", 20000, 2702, "600ms", 2, 28957104},
	{SchemeF2Tree, failure.C1, ControlOSPF, "60.117904ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C2, ControlOSPF, "60.117904ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C3, ControlOSPF, "60.135808ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C4, ControlOSPF, "60.135808ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C5, ControlOSPF, "60.153712ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C6, ControlOSPF, "60.117904ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C7, ControlOSPF, "270.054768ms", 20000, 2574, "600ms", 2, 28957104},
	{SchemeFatTree, failure.C1, ControlBGP, "71.05024ms", 20000, 702, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C1, ControlBGP, "60.117904ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C7, ControlBGP, "70.055664ms", 20000, 606, "200ms", 1, 28957104},
	{SchemeFatTree, failure.C1, ControlCentralized, "132.1ms", 20000, 1322, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C1, ControlCentralized, "60.117904ms", 20000, 602, "200ms", 1, 28957104},
	{SchemeF2Tree, failure.C7, ControlCentralized, "132.051696ms", 20000, 1193, "200ms", 1, 28957104},
}

func TestRecoveryPaperFiguresPinned(t *testing.T) {
	for _, f := range recoveryFigures {
		res, err := RunRecovery(RecoveryOptions{
			Scheme: f.scheme, Ports: 8, Condition: f.cond, Control: f.control,
			Seed: RecoverySeed(42, f.scheme, 8, f.cond, f.control, 0),
		})
		if err != nil {
			t.Fatalf("%s %v %s: %v", f.scheme, f.cond, f.control, err)
		}
		got := f
		got.loss, got.collapse = res.ConnectivityLoss.String(), res.CollapseDuration.String()
		got.sent, got.lost, got.timeouts = res.PacketsSent, res.PacketsLost, res.TCPTimeouts
		got.tcpBytes = 0
		for _, b := range res.TCPBins {
			got.tcpBytes += b.Bytes
		}
		if got != f {
			t.Errorf("%s %v %s: paper figures moved\n got %+v\nwant %+v", f.scheme, f.cond, f.control, got, f)
		}
	}
}

// TestRecoveryAllocBudget caps what one recovery run pair allocates: the
// transport's segments and datagrams are pooled, the probe sink is presized
// for its horizon and the TCP bins are summed as data arrives, so what is
// left is mostly building the two labs.
func TestRecoveryAllocBudget(t *testing.T) {
	const ceiling = 5.5 * (1 << 20)
	opts := RecoveryOptions{Scheme: SchemeFatTree, Ports: 8, Condition: failure.C1}
	if _, err := RunRecovery(opts); err != nil { // warm lazily built tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunRecovery(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("RunRecovery on fat-tree C1 at N=8 allocates %.1f MiB in %d objects, ceiling %.1f MiB",
			float64(got)/(1<<20), after.Mallocs-before.Mallocs, float64(ceiling)/(1<<20))
	}
}

// TestRecoveryHalvesMatchSerial holds RunRecovery, whose UDP and TCP runs
// go at once, to the two runs made one after the other on one goroutine
// into a fresh result.
func TestRecoveryHalvesMatchSerial(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		cond   failure.Condition
	}{
		{SchemeFatTree, failure.C1},
		{SchemeF2Tree, failure.C1},
		{SchemeF2Tree, failure.C7},
	} {
		opts := RecoveryOptions{Scheme: c.scheme, Ports: 8, Condition: c.cond}
		got, err := RunRecovery(opts)
		if err != nil {
			t.Fatalf("%s %v: %v", c.scheme, c.cond, err)
		}
		o := opts.withDefaults()
		want := &RecoveryResult{Scheme: o.Scheme, Condition: o.Condition, FailAt: o.FailAt, BinWidth: o.BinWidth}
		if err := runRecoveryUDP(o, want); err != nil {
			t.Fatalf("%s %v: udp run: %v", c.scheme, c.cond, err)
		}
		if err := runRecoveryTCP(o, want); err != nil {
			t.Fatalf("%s %v: tcp run: %v", c.scheme, c.cond, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v: RunRecovery differs from its halves run in series (digest %s, want %s)",
				c.scheme, c.cond, jsonDigest(t, got), jsonDigest(t, want))
		}
	}
}

// TestBothForwardsPanic pins what both returns and raises: each error comes
// back in its own position, and a panic in either function reaches the
// caller with its value only after the other function has finished; when
// both panic, the spawned function's value wins, wrapped in a halfPanic with
// the stack it was raised on.
func TestBothForwardsPanic(t *testing.T) {
	errA, errB := errors.New("a failed"), errors.New("b failed")
	if a, b := both(func() error { return errA }, func() error { return errB }); a != errA || b != errB {
		t.Fatalf("both returned (%v, %v), want (%v, %v)", a, b, errA, errB)
	}
	for _, tc := range []struct {
		name         string
		panicA, panB bool
		want         any
	}{
		{"spawned", true, false, "a exploded"},
		{"caller's", false, true, "b exploded"},
		{"both", true, true, "a exploded"},
	} {
		var aDone, bDone bool
		a := func() error {
			if tc.panicA {
				panic("a exploded")
			}
			aDone = true
			return nil
		}
		b := func() error {
			if tc.panB {
				panic("b exploded")
			}
			bDone = true
			return nil
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			both(a, b)
			return nil
		}()
		if hp, ok := got.(halfPanic); ok {
			if !tc.panicA || !strings.Contains(hp.PanicStack(), "TestBothForwardsPanic.func") {
				t.Errorf("%s panics: halfPanic stack does not show the spawned function:\n%s", tc.name, hp.PanicStack())
			}
			got = hp.value
		}
		if got != tc.want {
			t.Errorf("%s panics: recovered %v, want %v", tc.name, got, tc.want)
		}
		if aDone == tc.panicA || bDone == tc.panB {
			t.Errorf("%s panics: a finished %v, b finished %v; each should unless it panicked", tc.name, aDone, bDone)
		}
	}
}
