package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/failure"
)

// recoveryPins are sha256 digests of the JSON encoding of the complete
// RecoveryResult at N=8 with the default seed: every bin of both flows,
// every delay point, loss, collapse, sent, lost and timeouts. The root
// golden digests pin only the scalar metrics; these pin the series too, so
// a change to how probes are recorded or binned must leave them unedited.
var recoveryPins = []struct {
	scheme Scheme
	cond   failure.Condition
	digest string
}{
	{SchemeFatTree, failure.C1, "060ac27126a1a018c611adef00fbda8182e22855c0012efb5425f4a2ead2b1a6"},
	{SchemeF2Tree, failure.C1, "4d236fad1d863aee03b77611414890cd12c747e65a18a8a736924c4e914fe7f4"},
	{SchemeF2Tree, failure.C7, "38860515bbd78560deb3866a62b8fd93f93d99aacba5796d65f659e6132e8878"},
}

func TestRecoveryResultPinned(t *testing.T) {
	for _, p := range recoveryPins {
		res, err := RunRecovery(RecoveryOptions{Scheme: p.scheme, Ports: 8, Condition: p.cond})
		if err != nil {
			t.Fatalf("%s %v: %v", p.scheme, p.cond, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != p.digest {
			t.Errorf("%s %v: RecoveryResult digest = %s, want %s (%d UDP bins, %d TCP bins, %d delays)",
				p.scheme, p.cond, got, p.digest, len(res.UDPBins), len(res.TCPBins), len(res.Delays))
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
