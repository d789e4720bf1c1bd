package campaign

import (
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/failure"
)

func TestRunFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("12 recovery runs")
	}
	res, err := RunFig4(42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ft := res.ByCondition[exp.SchemeFatTree]
	f2 := res.ByCondition[exp.SchemeF2Tree]
	// Fat tree: every applicable condition needs control-plane recovery.
	for _, c := range []failure.Condition{failure.C1, failure.C2, failure.C3, failure.C4, failure.C5} {
		r := ft[c]
		if r == nil {
			t.Fatalf("fat tree %v missing", c)
		}
		if r.ConnectivityLoss < 250*time.Millisecond || r.ConnectivityLoss > 400*time.Millisecond {
			t.Errorf("fat tree %v loss = %v, want ≈ 270 ms", c, r.ConnectivityLoss)
		}
	}
	// F²Tree: C1–C6 recover at detection speed, C7 degrades.
	for _, c := range []failure.Condition{failure.C1, failure.C2, failure.C3, failure.C4, failure.C5, failure.C6} {
		r := f2[c]
		if r == nil {
			t.Fatalf("f2tree %v missing", c)
		}
		if r.ConnectivityLoss < 55*time.Millisecond || r.ConnectivityLoss > 90*time.Millisecond {
			t.Errorf("f2tree %v loss = %v, want ≈ 60 ms", c, r.ConnectivityLoss)
		}
	}
	if r := f2[failure.C7]; r.ConnectivityLoss < 250*time.Millisecond {
		t.Errorf("f2tree C7 loss = %v, want fat-tree-like", r.ConnectivityLoss)
	}
	if !strings.Contains(res.String(), "C7") {
		t.Error("Fig4 table malformed")
	}
	if !strings.Contains(res.Fig5String(), "f2tree-C4") {
		t.Error("Fig5 series malformed")
	}
}

func TestRunFig6QuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("4 workload runs")
	}
	res, err := RunFig6(11, 60_000, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(res.Runs))
	}
	out := res.String()
	for _, want := range []string{"Fig 6(a)", "Fig 6(b)", "fattree", "f2tree", ">100ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig6 output missing %q", want)
		}
	}
	// F²Tree never misses more than fat tree at the same failure level.
	find := func(s exp.Scheme, ch int) *exp.PAResult {
		for _, r := range res.Runs {
			if r.Scheme == s && r.Channels == ch {
				return r
			}
		}
		return nil
	}
	for _, ch := range []int{1, 5} {
		ft, f2 := find(exp.SchemeFatTree, ch), find(exp.SchemeF2Tree, ch)
		if ft == nil || f2 == nil {
			t.Fatal("missing run")
		}
		if f2.MissRatio > ft.MissRatio {
			t.Fatalf("CF=%d: F²Tree misses %.3f > fat tree %.3f", ch, f2.MissRatio, ft.MissRatio)
		}
	}
}
