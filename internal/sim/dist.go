package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// LogNormal is a log-normal distribution parameterized by the mean and
// standard deviation of the underlying normal (Mu, Sigma). The paper's
// failure process ([1] Gill et al.) and background traffic ([25] Benson et
// al.) are both modeled as log-normal.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// LogNormalFromMedianP95 builds a log-normal whose median and 95th
// percentile match the given values. Median must be > 0 and p95 > median.
func LogNormalFromMedianP95(median, p95 float64) (LogNormal, error) {
	if median <= 0 || p95 <= median {
		return LogNormal{}, fmt.Errorf("sim: invalid log-normal spec median=%v p95=%v", median, p95)
	}
	const z95 = 1.6448536269514722 // Phi^-1(0.95)
	mu := math.Log(median)
	sigma := (math.Log(p95) - mu) / z95
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws one value.
func (d LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}

// Median returns exp(mu).
func (d LogNormal) Median() float64 { return math.Exp(d.Mu) }

// Quantile returns the value at probability p in (0,1).
func (d LogNormal) Quantile(p float64) float64 {
	return math.Exp(d.Mu + d.Sigma*normQuantile(p))
}

// normQuantile approximates the standard normal inverse CDF using the
// Acklam rational approximation (relative error < 1.15e-9).
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-39.69683028665376, 220.9460984245205, -275.9285104469687,
		138.3577518672690, -30.66479806614716, 2.506628277459239}
	b := [5]float64{-54.47609879822406, 161.5858368580409, -155.6989798598866,
		66.80131188771972, -13.28068155288572}
	c := [6]float64{-0.007784894002430293, -0.3223964580411365, -2.400758277161838,
		-2.549732539343734, 4.374664141464968, 2.938163982698783}
	d := [4]float64{0.007784695709041462, 0.3224671290700398, 2.445134137142996,
		3.754408661907416}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
