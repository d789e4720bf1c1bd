package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRunOrdersEventsByTime(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*Millisecond, func(Time) { got = append(got, 3) })
	s.At(10*Millisecond, func(Time) { got = append(got, 1) })
	s.At(20*Millisecond, func(Time) { got = append(got, 2) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestEqualTimesRunFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Millisecond, func(Time) { got = append(got, i) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.After(7*time.Millisecond, func(now Time) {
		s.After(5*time.Millisecond, func(now Time) { at = now })
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 12*Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulingInPastRunsNow(t *testing.T) {
	s := New(1)
	fired := false
	s.After(10*time.Millisecond, func(now Time) {
		s.At(1*Millisecond, func(inner Time) {
			fired = true
			if inner != now {
				t.Errorf("past event ran at %v, want %v", inner, now)
			}
		})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Fatal("past-scheduled event never ran")
	}
}

// A negative delay means now: After and AfterArg with d < 0 run at the
// current instant, in scheduling order with At(now) events.
func TestNegativeDelayRunsNowInFIFOOrder(t *testing.T) {
	s := New(1)
	var got []int
	var at []Time
	record := func(i int) Event {
		return func(now Time) { got, at = append(got, i), append(at, now) }
	}
	recordArg := func(now Time, arg any) { got, at = append(got, arg.(int)), append(at, now) }
	s.After(10*time.Millisecond, func(now Time) {
		s.At(now, record(0))
		s.After(-3*time.Millisecond, record(1))
		s.AfterArg(-time.Nanosecond, recordArg, 2)
		s.At(now, record(3))
		s.AfterArg(time.Duration(math.MinInt64), recordArg, 4)
		s.After(-time.Hour, record(5))
		s.After(0, record(6))
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 7 {
		t.Fatalf("ran %d events, want 7: %v", len(got), got)
	}
	for i := range got {
		if got[i] != i || at[i] != 10*Millisecond {
			t.Fatalf("event %d ran as #%d at %v, want #%d at 10ms (order %v)", i, got[i], at[i], i, got)
		}
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New(1)
	ran := false
	h := s.After(time.Millisecond, func(Time) { ran = true })
	if !s.Cancel(h) {
		t.Fatal("Cancel reported not pending")
	}
	if s.Cancel(h) {
		t.Fatal("double Cancel reported pending")
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestHorizonStopsClock(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(10*Millisecond, func(Time) { ran++ })
	s.At(20*Millisecond, func(Time) { ran++ })
	s.At(30*Millisecond, func(Time) { ran++ })
	if err := s.Run(20 * Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d events, want 2 (horizon-inclusive)", ran)
	}
	if s.Now() != 20*Millisecond {
		t.Fatalf("Now = %v, want horizon", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestStopAbortsRun(t *testing.T) {
	s := New(1)
	s.At(Millisecond, func(Time) { s.Stop() })
	s.At(2*Millisecond, func(Time) { t.Error("event after Stop ran") })
	if err := s.RunUntilIdle(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestTickerFiresAndStops(t *testing.T) {
	s := New(1)
	ticks := 0
	var stop func()
	stop = s.Ticker(10*time.Millisecond, func(now Time) {
		ticks++
		if ticks == 3 {
			stop()
		}
	})
	if err := s.Run(Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []float64 {
		s := New(42)
		var vals []float64
		for i := 0; i < 5; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.After(d, func(now Time) { vals = append(vals, now.Seconds()) })
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return vals
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

func TestEventsRunCounts(t *testing.T) {
	s := New(1)
	for i := 0; i < 17; i++ {
		s.After(time.Duration(i)*time.Microsecond, func(Time) {})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if s.EventsRun() != 17 {
		t.Fatalf("EventsRun = %d, want 17", s.EventsRun())
	}
}

func TestPeakPendingIsHighWaterMark(t *testing.T) {
	s := New(1)
	if s.PeakPending() != 0 {
		t.Fatalf("fresh PeakPending = %d, want 0", s.PeakPending())
	}
	// Five queued at once, one of them cancelled: cancelling does not
	// lower the mark, and neither does running the queue down.
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, s.After(time.Duration(i+1)*time.Microsecond, func(Time) {}))
	}
	s.Cancel(hs[2])
	if s.Pending() != 4 || s.PeakPending() != 5 {
		t.Fatalf("Pending = %d, PeakPending = %d, want 4 and 5", s.Pending(), s.PeakPending())
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.PeakPending() != 5 {
		t.Fatalf("after draining: Pending = %d, PeakPending = %d, want 0 and 5", s.Pending(), s.PeakPending())
	}
	// Seven at once raises it.
	for i := 0; i < 7; i++ {
		s.After(time.Microsecond, func(Time) {})
	}
	if s.PeakPending() != 7 {
		t.Fatalf("PeakPending = %d, want 7", s.PeakPending())
	}

	// Both heaps count. Running the first event refills the near heap with
	// the events inside farWindow of it; the one a second out stays far.
	s = New(1)
	s.After(time.Microsecond, func(Time) {})
	s.After(2*time.Microsecond, func(Time) {})
	s.After(time.Second, func(Time) {})
	if err := s.Run(Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(s.near) != 1 || len(s.far) != 1 || s.Pending() != 2 || s.PeakPending() != 3 {
		t.Fatalf("near %d, far %d, Pending %d, PeakPending %d; want 1, 1, 2 and 3",
			len(s.near), len(s.far), s.Pending(), s.PeakPending())
	}
	// Four more far timers raise the mark to the sum of the two heaps.
	for i := 0; i < 4; i++ {
		s.After(2*time.Second, func(Time) {})
	}
	if len(s.far) != 5 || s.Pending() != 6 || s.PeakPending() != 6 {
		t.Fatalf("far %d, Pending %d, PeakPending %d; want 5, 6 and 6", len(s.far), s.Pending(), s.PeakPending())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(250 * time.Millisecond)
	if a.Add(50*time.Millisecond) != Time(300*time.Millisecond) {
		t.Fatal("Add wrong")
	}
	if a.Sub(Time(100*time.Millisecond)) != 150*time.Millisecond {
		t.Fatal("Sub wrong")
	}
	if a.Seconds() != 0.25 {
		t.Fatal("Seconds wrong")
	}
	if a.String() != "250ms" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestPropertyEventsNeverRunOutOfOrder(t *testing.T) {
	f := func(delaysUs []uint16, seed int64) bool {
		if len(delaysUs) == 0 {
			return true
		}
		s := New(seed)
		var last Time
		ok := true
		for _, d := range delaysUs {
			s.After(time.Duration(d)*time.Microsecond, func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		if err := s.RunUntilIdle(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalFromMedianP95(t *testing.T) {
	d, err := LogNormalFromMedianP95(100, 1000)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if math.Abs(d.Median()-100) > 1e-9 {
		t.Fatalf("median = %v, want 100", d.Median())
	}
	if q := d.Quantile(0.95); math.Abs(q-1000) > 1e-6*1000 {
		t.Fatalf("p95 = %v, want 1000", q)
	}
	if _, err := LogNormalFromMedianP95(0, 10); err == nil {
		t.Fatal("expected error for zero median")
	}
	if _, err := LogNormalFromMedianP95(10, 5); err == nil {
		t.Fatal("expected error for p95 < median")
	}
}

func TestLogNormalSampleStatistics(t *testing.T) {
	d := LogNormal{Mu: 2, Sigma: 0.5}
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	var sumLog float64
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v <= 0 {
			t.Fatal("log-normal sample <= 0")
		}
		sumLog += math.Log(v)
	}
	if got := sumLog / n; math.Abs(got-2) > 0.02 {
		t.Fatalf("mean log = %v, want ~2", got)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	// Phi(normQuantile(p)) ~ p for a spread of probabilities.
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := normQuantile(p)
		if got := phi(x); math.Abs(got-p) > 1e-6 {
			t.Fatalf("Phi(Phi^-1(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Fatal("extremes should be infinite")
	}
}

// TestEventAtEndOfTimeRuns schedules at the last representable instant,
// where the far heap's refill window would overflow.
func TestEventAtEndOfTimeRuns(t *testing.T) {
	s := New(1)
	var got []Time
	s.At(Time(math.MaxInt64), func(now Time) { got = append(got, now) })
	s.At(Time(math.MaxInt64)-Millisecond, func(now Time) { got = append(got, now) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != Time(math.MaxInt64)-Millisecond || got[1] != Time(math.MaxInt64) {
		t.Fatalf("ran at %v, want the instant before the end of time, then the end", got)
	}
}
