// Package metrics extracts the quantities the paper reports from raw
// packet and flow traces: binned throughput (Fig 2), connectivity-loss
// duration and packet loss (Table III, Fig 4), TCP throughput-collapse
// duration (Table III, Fig 4), end-to-end delay series (Fig 5) and
// completion-time CDFs / deadline-miss ratios (Fig 6).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/sim"
)

// Sample is one delivered unit: arrival time and size.
type Sample struct {
	At    sim.Time
	Bytes int
}

// Bin is one throughput bin.
type Bin struct {
	Start sim.Time
	Bytes int
}

// Mbps returns the bin's average rate given the bin width.
func (b Bin) Mbps(width time.Duration) float64 {
	if width <= 0 {
		return 0
	}
	return float64(b.Bytes*8) / width.Seconds() / 1e6
}

// BinThroughput buckets samples into fixed-width bins spanning [start, end).
// Samples outside the span are ignored.
func BinThroughput(samples []Sample, start, end sim.Time, width time.Duration) []Bin {
	b := NewBinner(start, end, width)
	for _, s := range samples {
		b.Add(s.At, s.Bytes)
	}
	return b.Bins
}

// Binner is BinThroughput one delivery at a time, for callers that would
// otherwise keep every sample only to bin it at the end.
type Binner struct {
	// Bins are BinThroughput's bins of everything added so far; nil for an
	// empty span or a non-positive width.
	Bins       []Bin
	start, end sim.Time
	width      time.Duration
}

// NewBinner returns empty bins spanning [start, end).
func NewBinner(start, end sim.Time, width time.Duration) Binner {
	b := Binner{start: start, end: end, width: width}
	if end <= start || width <= 0 {
		return b
	}
	b.Bins = make([]Bin, int(end.Sub(start)/width)+1)
	for i := range b.Bins {
		b.Bins[i].Start = start.Add(time.Duration(i) * width)
	}
	return b
}

// Add counts bytes delivered at `at`; deliveries outside the span are
// ignored.
func (b *Binner) Add(at sim.Time, bytes int) {
	if len(b.Bins) == 0 || at < b.start || at >= b.end {
		return
	}
	if i := int(at.Sub(b.start) / b.width); i < len(b.Bins) {
		b.Bins[i].Bytes += bytes
	}
}

// ConnectivityLoss finds the outage the paper measures: the gap between the
// last delivery before (or just after) failAt and the first delivery after
// it. Returns 0 if deliveries never pause, and end−lastArrival if traffic
// never resumes by end. Arrivals in ascending order (as every simulated
// receiver records them) are read in place; others are sorted in a copy.
func ConnectivityLoss(arrivals []sim.Time, failAt, end sim.Time) time.Duration {
	times := arrivals
	if !slices.IsSorted(times) {
		times = slices.Clone(arrivals)
		slices.Sort(times)
	}
	return ConnectivityLossOf(len(times), func(i int) sim.Time { return times[i] }, failAt, end)
}

// ConnectivityLossOf is ConnectivityLoss over n ascending arrival times
// read through at(i), for callers whose times sit inside larger records.
func ConnectivityLossOf(n int, at func(i int) sim.Time, failAt, end sim.Time) time.Duration {
	if n == 0 {
		return end.Sub(failAt)
	}
	// Last arrival at or before the moment in-flight traffic drains
	// (small grace for packets already past the failed hop).
	const grace = 5 * time.Millisecond
	cutoff := failAt.Add(grace)
	lastBefore := sort.Search(n, func(i int) bool { return at(i) > cutoff }) - 1
	if lastBefore == -1 {
		// Nothing delivered before the failure; measure from failAt.
		return at(0).Sub(failAt)
	}
	if lastBefore == n-1 {
		return end.Sub(at(lastBefore))
	}
	return at(lastBefore + 1).Sub(at(lastBefore))
}

// CollapseDuration measures how long binned throughput stays below
// half the pre-failure average after failAt — the paper's "duration of
// throughput collapse". Recovery requires sustaining ≥ half for
// `sustain` consecutive bins (2 is the paper-faithful choice at 20 ms
// bins). Returns the duration from failAt to the start of the sustained
// recovery, or end−failAt if it never recovers.
func CollapseDuration(bins []Bin, width time.Duration, failAt sim.Time, preFailAvgBytes float64, sustain int) time.Duration {
	if sustain < 1 {
		sustain = 1
	}
	half := preFailAvgBytes / 2
	firstIdx := -1
	for i, b := range bins {
		if b.Start.Add(width) > failAt {
			firstIdx = i
			break
		}
	}
	if firstIdx == -1 {
		return 0
	}
	for i := firstIdx; i < len(bins); i++ {
		ok := true
		for j := 0; j < sustain; j++ {
			if i+j >= len(bins) || float64(bins[i+j].Bytes) < half {
				ok = false
				break
			}
		}
		if ok {
			if d := bins[i].Start.Sub(failAt); d > 0 {
				return d
			}
			return 0
		}
	}
	if len(bins) == 0 {
		return 0
	}
	last := bins[len(bins)-1].Start.Add(width)
	return last.Sub(failAt)
}

// PreFailureAverage returns the average bytes/bin over bins entirely
// before failAt.
func PreFailureAverage(bins []Bin, width time.Duration, failAt sim.Time) float64 {
	var sum, n float64
	for _, b := range bins {
		if b.Start.Add(width) <= failAt {
			sum += float64(b.Bytes)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// DelayPoint is one end-to-end delay observation for Fig 5.
type DelayPoint struct {
	SentAt sim.Time
	Delay  time.Duration
}

// CDF is an empirical distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from values (copied, then sorted).
func NewCDF(values []float64) *CDF {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return &CDF{sorted: v}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the p-quantile (p in [0,1]) by nearest-rank.
func (c *CDF) Quantile(p float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, fmt.Errorf("metrics: empty CDF")
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("metrics: quantile %v outside [0,1]", p)
	}
	idx := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx], nil
}

// FractionAbove returns the fraction of samples strictly greater than x.
func (c *CDF) FractionAbove(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 { return 1 - c.FractionAbove(x) }

// Values returns the sorted samples (caller must not mutate).
func (c *CDF) Values() []float64 { return c.sorted }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var s float64
	for _, v := range c.sorted {
		s += v
	}
	return s / float64(len(c.sorted))
}
