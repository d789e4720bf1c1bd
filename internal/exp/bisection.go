package exp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netaddr"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// BisectionOptions parameterizes the §II-D throughput check: F²Tree trades
// a slice of total bisection bandwidth for redundancy but stays 1:1
// non-oversubscribed, so random permutation traffic should run every host
// at near line rate on both fabrics.
type BisectionOptions struct {
	Scheme   Scheme
	Ports    int
	Duration sim.Time
	Seed     int64
}

func (o BisectionOptions) withDefaults() BisectionOptions {
	if o.Duration == 0 {
		o.Duration = 200 * sim.Millisecond
	}
	return o
}

// BisectionResult reports per-host goodput under permutation traffic.
type BisectionResult struct {
	Scheme   Scheme
	Hosts    int
	MeanMbps float64
	MinMbps  float64
	AggGbps  float64
	// Efficiency is mean goodput over the 1 Gbps line rate.
	Efficiency float64
	// Fairness is Jain's index over per-receiver goodput (1 = equal).
	Fairness float64
}

// Fmt renders one row.
func (r *BisectionResult) Fmt() string {
	return fmt.Sprintf("%-14s hosts=%-3d mean=%7.1f Mbps  min=%7.1f Mbps  agg=%6.1f Gbps  eff=%.2f  jain=%.2f",
		r.Scheme, r.Hosts, r.MeanMbps, r.MinMbps, r.AggGbps, r.Efficiency, r.Fairness)
}

// jainIndex computes (Σx)²/(n·Σx²).
func jainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunBisection drives a random derangement of host pairs at line rate and
// measures delivered goodput per receiver.
func RunBisection(opts BisectionOptions) (*BisectionResult, error) {
	o := opts.withDefaults()
	lab, err := NewLab(LabSpec{Scheme: o.Scheme, Ports: o.Ports, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	hosts := lab.Topo.NodesOfKind(topo.Host)
	n := len(hosts)
	stacks := make([]*transport.Stack, n)
	received := make([]int, n)
	for i, h := range hosts {
		st, err := transport.NewStack(lab.Net, h)
		if err != nil {
			return nil, err
		}
		stacks[i] = st
		idx := i
		err = st.BindUDP(9, func(_ sim.Time, _ netaddr.Addr, _ uint16, size int, _ transport.Datagram, _ sim.Time) {
			received[idx] += size
		})
		if err != nil {
			return nil, err
		}
	}
	// Random derangement: shuffle, then rotate any fixed points away.
	perm := lab.Sim.Rand().Perm(n)
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	// Line rate: one 1448 B payload (1488 B on wire) per wire time.
	const payload = 1448
	wireTime := time.Duration(float64((payload+transport.HeaderBytes)*8) / 1e9 * float64(time.Second))
	for i, st := range stacks {
		st.StartUDPSource(stacks[perm[i]].Addr(), 9, payload, wireTime)
	}
	if err := lab.Sim.Run(o.Duration); err != nil {
		return nil, err
	}
	rates := make([]float64, n)
	var sum float64
	for i, bytes := range received {
		rates[i] = float64(bytes*8) / o.Duration.Seconds() / 1e6
		sum += rates[i]
	}
	sort.Float64s(rates)
	return &BisectionResult{
		Scheme:     o.Scheme,
		Hosts:      n,
		MeanMbps:   sum / float64(n),
		MinMbps:    rates[0],
		AggGbps:    sum / 1e3,
		Efficiency: sum / float64(n) / 1e3,
		Fairness:   jainIndex(rates),
	}, nil
}
