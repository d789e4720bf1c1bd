package exp

import (
	"strconv"

	"repro/internal/failure"
	"repro/internal/sim"
)

// Control-plane names shared by every run description, the seed-derivation
// convention and the CLIs (see ParseControl).
const (
	ControlOSPF        = "ospf"
	ControlBGP         = "bgp"
	ControlCentralized = "centralized"
)

// RecoverySeed derives the RNG seed of one recovery run inside a multi-run
// experiment or campaign from the campaign base seed and the run's
// coordinates. Every multi-run driver (RunFig7, the sweeps, campaigns) seeds
// sub-runs through this single convention, so a run's result is a pure
// function of its spec — independent of sweep order, worker scheduling and
// whichever sibling runs surround it.
func RecoverySeed(base int64, s Scheme, ports int, c failure.Condition, control string, rep int) int64 {
	return sim.DeriveSeed(base, "recovery", string(s), strconv.Itoa(ports),
		c.String(), control, strconv.Itoa(rep))
}

// PASeed is RecoverySeed's counterpart for partition-aggregate runs
// (scheme × concurrent-failure channels × replicate).
func PASeed(base int64, s Scheme, ports, channels, rep int) int64 {
	return sim.DeriveSeed(base, "pa", string(s), strconv.Itoa(ports),
		strconv.Itoa(channels), strconv.Itoa(rep))
}

// ChaosSeed is the convention for fuzzed chaos scenarios (scheme × control
// × replicate). The seed drives both the scenario generator and the run
// itself, so a fuzz cell is fully reproducible from its coordinates.
func ChaosSeed(base int64, s Scheme, ports int, control string, rep int) int64 {
	return sim.DeriveSeed(base, "chaos", string(s), strconv.Itoa(ports),
		control, strconv.Itoa(rep))
}

// DetectSeed is the convention for detector-comparison cells (scheme ×
// recovery mechanism × detector mode × condition × replicate).
func DetectSeed(base int64, s Scheme, ports int, mechanism, detector, condition string, rep int) int64 {
	return sim.DeriveSeed(base, "detect", string(s), strconv.Itoa(ports),
		mechanism, detector, condition, strconv.Itoa(rep))
}
