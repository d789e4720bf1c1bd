package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

func TestBinThroughput(t *testing.T) {
	samples := []Sample{
		{At: ms(1), Bytes: 100},
		{At: ms(5), Bytes: 100},
		{At: ms(25), Bytes: 300},
		{At: ms(45), Bytes: 700},
		{At: ms(999), Bytes: 9}, // outside span
	}
	bins := BinThroughput(samples, 0, ms(60), 20*time.Millisecond)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Bytes != 200 || bins[1].Bytes != 300 || bins[2].Bytes != 700 || bins[3].Bytes != 0 {
		t.Fatalf("bin contents: %+v", bins)
	}
	// 200 bytes / 20 ms = 0.08 Mbps.
	if got := bins[0].Mbps(20 * time.Millisecond); math.Abs(got-0.08) > 1e-9 {
		t.Fatalf("Mbps = %v", got)
	}
	if BinThroughput(samples, ms(60), 0, 20*time.Millisecond) != nil {
		t.Fatal("inverted span should return nil")
	}
}

func TestConnectivityLossBasic(t *testing.T) {
	// Arrivals every 1 ms until 100 ms, resuming at 372 ms.
	var arrivals []sim.Time
	for i := 1; i <= 100; i++ {
		arrivals = append(arrivals, ms(i))
	}
	for i := 372; i <= 400; i++ {
		arrivals = append(arrivals, ms(i))
	}
	got := ConnectivityLoss(arrivals, ms(100), ms(400))
	if got != 272*time.Millisecond {
		t.Fatalf("loss = %v, want 272ms", got)
	}
}

func TestConnectivityLossNeverRecovers(t *testing.T) {
	arrivals := []sim.Time{ms(1), ms(2), ms(3)}
	got := ConnectivityLoss(arrivals, ms(3), ms(500))
	if got != 497*time.Millisecond {
		t.Fatalf("loss = %v, want 497ms", got)
	}
}

func TestConnectivityLossNoArrivals(t *testing.T) {
	if got := ConnectivityLoss(nil, ms(100), ms(500)); got != 400*time.Millisecond {
		t.Fatalf("loss = %v", got)
	}
}

func TestConnectivityLossUnsortedInputAndGrace(t *testing.T) {
	// In-flight packets arriving ≤ 5 ms after the failure moment count as
	// "before".
	arrivals := []sim.Time{ms(103), ms(2), ms(1), ms(350)}
	got := ConnectivityLoss(arrivals, ms(100), ms(400))
	if got != 247*time.Millisecond {
		t.Fatalf("loss = %v, want 247ms (103→350)", got)
	}
}

// TestConnectivityLossUnsortedMatchesSorted: sorted input is read in place
// without allocating and any other is sorted in a copy. Both give the same
// answer, and the caller's slice is left as it was.
func TestConnectivityLossUnsortedMatchesSorted(t *testing.T) {
	var sorted []sim.Time
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, ms(i), ms(i)) // duplicates, as two flows would give
	}
	for i := 160; i <= 300; i += 3 {
		sorted = append(sorted, ms(i))
	}
	if a := testing.AllocsPerRun(10, func() { ConnectivityLoss(sorted, ms(100), ms(400)) }); a != 0 {
		t.Errorf("sorted input: %v allocations, want 0 (no copy)", a)
	}
	rng := rand.New(rand.NewSource(1))
	for _, failAt := range []sim.Time{0, ms(50), ms(97), ms(100), ms(158), ms(299), ms(400)} {
		want := ConnectivityLoss(sorted, failAt, ms(400))
		for k := 0; k < 5; k++ {
			shuffled := slices.Clone(sorted)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			kept := slices.Clone(shuffled)
			if got := ConnectivityLoss(shuffled, failAt, ms(400)); got != want {
				t.Errorf("failAt %v, shuffle %d: loss = %v, sorted input gives %v", failAt, k, got, want)
			}
			if !slices.Equal(shuffled, kept) {
				t.Fatalf("failAt %v: ConnectivityLoss reordered its input", failAt)
			}
		}
	}
}

// TestBinnerStreams: deliveries added one at a time land in [start, end)
// bins; those outside the span are dropped, and an empty span or a zero
// width has no bins.
func TestBinnerStreams(t *testing.T) {
	samples := []Sample{{At: ms(1), Bytes: 100}, {At: ms(25), Bytes: 300}, {At: ms(59), Bytes: 7},
		{At: ms(60), Bytes: 9}, {At: -ms(1), Bytes: 11}}
	for _, c := range []struct {
		end   sim.Time
		width time.Duration
		want  []int
	}{
		{ms(60), 20 * time.Millisecond, []int{100, 300, 7, 0}},
		{ms(61), 20 * time.Millisecond, []int{100, 300, 7, 9}},
		{0, 20 * time.Millisecond, nil},
		{ms(60), 0, nil},
	} {
		b := NewBinner(0, c.end, c.width)
		for _, s := range samples {
			b.Add(s.At, s.Bytes)
		}
		var got []int
		for i, bin := range b.Bins {
			if bin.Start != sim.Time(i)*20*sim.Millisecond {
				t.Fatalf("end %v: bin %d starts at %v", c.end, i, bin.Start)
			}
			got = append(got, bin.Bytes)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("end %v width %v: bytes %v, want %v", c.end, c.width, got, c.want)
		}
	}
}

func TestCollapseDurationRecovers(t *testing.T) {
	width := 20 * time.Millisecond
	// 10 healthy bins (1000 B), failure at 200 ms, 10 dead bins, then
	// recovery.
	var bins []Bin
	for i := 0; i < 30; i++ {
		b := Bin{Start: sim.Time(i) * sim.Time(width)}
		switch {
		case i < 10:
			b.Bytes = 1000
		case i < 20:
			b.Bytes = 0
		default:
			b.Bytes = 1000
		}
		bins = append(bins, b)
	}
	avg := PreFailureAverage(bins, width, ms(200))
	if avg != 1000 {
		t.Fatalf("pre-failure avg = %v", avg)
	}
	got := CollapseDuration(bins, width, ms(200), avg, 2)
	if got != 200*time.Millisecond {
		t.Fatalf("collapse = %v, want 200ms", got)
	}
}

func TestCollapseDurationIgnoresBlip(t *testing.T) {
	width := 20 * time.Millisecond
	var bins []Bin
	for i := 0; i < 30; i++ {
		b := Bin{Start: sim.Time(i) * sim.Time(width), Bytes: 0}
		if i < 10 {
			b.Bytes = 1000
		}
		if i == 14 { // single-bin blip must not count as recovery
			b.Bytes = 900
		}
		if i >= 20 {
			b.Bytes = 1000
		}
		bins = append(bins, b)
	}
	got := CollapseDuration(bins, width, ms(200), 1000, 2)
	if got != 200*time.Millisecond {
		t.Fatalf("collapse = %v, want 200ms (blip ignored)", got)
	}
}

func TestCollapseDurationNeverRecovers(t *testing.T) {
	width := 20 * time.Millisecond
	bins := []Bin{{Start: 0, Bytes: 1000}, {Start: sim.Time(width), Bytes: 0}, {Start: 2 * sim.Time(width), Bytes: 0}}
	got := CollapseDuration(bins, width, sim.Time(width), 1000, 2)
	if got != 2*width {
		t.Fatalf("collapse = %v, want %v", got, 2*width)
	}
}

func TestCDFQuantilesAndFractions(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	c := NewCDF(vals)
	if c.Len() != 100 {
		t.Fatal("len")
	}
	q50, err := c.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q50 != 50 {
		t.Fatalf("median = %v", q50)
	}
	q99, err := c.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q99 != 99 {
		t.Fatalf("p99 = %v", q99)
	}
	if got := c.FractionAbove(90); math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("FractionAbove(90) = %v", got)
	}
	if got := c.At(100); got != 1 {
		t.Fatalf("At(max) = %v", got)
	}
	if got := c.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if _, err := c.Quantile(1.5); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
	empty := NewCDF(nil)
	if _, err := empty.Quantile(0.5); err == nil {
		t.Fatal("empty CDF quantile accepted")
	}
	if empty.FractionAbove(1) != 0 || empty.Mean() != 0 {
		t.Fatal("empty CDF stats should be zero")
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	_ = NewCDF(vals)
	if vals[0] != 3 {
		t.Fatal("input mutated")
	}
}
