package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// sample is one timing series: every value measured, in measurement order.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(values, n=4) — the one
// the acceptance driver applies to the run-to-run values — so a spread
// computed here reads the same as the driver's.
func (s sample) quartiles() (q1, med, q3 float64) {
	v := s.sorted()
	switch len(v) {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(v)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func (s sample) median() float64 {
	_, med, _ := s.quartiles()
	return med
}

// relIQR is the interquartile distance as a share of the median.
func (s sample) relIQR() float64 {
	q1, med, q3 := s.quartiles()
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func (s sample) sum() float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

// percentile is the nearest-rank percentile (p in 0..100), the convention
// of metrics.CDF and serve's /metrics.
func (s sample) percentile(p float64) float64 {
	v, err := metrics.NewCDF(s).Quantile(p / 100)
	if err != nil {
		return 0 // no samples
	}
	return v
}

// tailLadder is the set of tail percentiles the reports may name.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest ladder percentile that still has at
// least ten of the n samples beyond it; below twenty samples only the
// median is supported.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}
