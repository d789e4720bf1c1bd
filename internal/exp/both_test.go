package exp_test

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/testutil"
)

// TestHalfPanicFailsCampaignRun: a panic in the half of a run that both
// spawns reaches campaign's worker, which records that run as failed with
// the panic's value and a stack that shows both the function that panicked
// and the re-raise in both, and its siblings complete.
func TestHalfPanicFailsCampaignRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	specs := make([]campaign.Spec, 3)
	for i := range specs {
		specs[i] = campaign.Spec{Kind: campaign.KindRecovery, Scheme: "stub", Ports: 4, Condition: "C1", BaseSeed: 1, Rep: i}
	}
	run := func(s campaign.Spec) (campaign.Metrics, any, error) {
		exp.Both(func() error { return explodeUDPHalf(s.Rep) }, func() error { return nil })
		return campaign.Metrics{"rep": float64(s.Rep)}, nil, nil
	}
	out, err := campaign.Run(specs, run, campaign.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 || len(out.Results) != 3 {
		t.Fatalf("failed=%d results=%d, want 1/3", out.Failed, len(out.Results))
	}
	for _, r := range out.Results {
		switch {
		case r.Spec.Rep != 1:
			if r.Status != campaign.StatusOK {
				t.Errorf("sibling run %d: %s %s", r.Spec.Rep, r.Status, r.Error)
			}
		case r.Status != campaign.StatusFailed || r.Error != "panic: udp half exploded":
			t.Errorf("panicking run recorded as %s %q, want failed %q", r.Status, r.Error, "panic: udp half exploded")
		case !strings.Contains(r.Panic, "exp.both"):
			t.Errorf("captured stack does not pass through exp.both:\n%s", r.Panic)
		case !strings.Contains(r.Panic, "exp_test.explodeUDPHalf("):
			t.Errorf("captured stack does not show the function that panicked:\n%s", r.Panic)
		}
	}
}

// explodeUDPHalf panics on rep 1: the frame the captured stack must show.
//
//go:noinline
func explodeUDPHalf(rep int) error {
	if rep == 1 {
		panic("udp half exploded")
	}
	return nil
}
