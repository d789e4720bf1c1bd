package chaos

import (
	"testing"

	"repro/internal/detect"
)

// TestDetectorCellsCleanAndDeterministic runs a slice of the detector
// comparison (one condition per fault family, every mechanism, both
// detectors) on the dual-ToR fabric: all four oracles must pass and a
// second run must be byte-identical.
func TestDetectorCellsCleanAndDeterministic(t *testing.T) {
	cells := []DetectorCell{
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechF2Tree, Detector: detect.ModeFixed, Condition: "C1", BaseSeed: 42},
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechF2Tree, Detector: detect.ModeBFD, Condition: "C4", BaseSeed: 42},
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechGR, Detector: detect.ModeFixed, Condition: FaultCtrlCrash, BaseSeed: 42},
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechGR, Detector: detect.ModeBFD, Condition: "C1", BaseSeed: 42},
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechReconv, Detector: detect.ModeFixed, Condition: FaultFalseDetect, BaseSeed: 42},
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechReconv, Detector: detect.ModeBFD, Condition: "rand", BaseSeed: 42},
		{Scheme: "f2tree-dual", Ports: 6, Mechanism: MechF2Tree, Detector: detect.ModeFixed, Condition: FaultFlapStorm, BaseSeed: 42},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.Mechanism+"/"+cell.Detector+"/"+cell.Condition, func(t *testing.T) {
			a, err := RunDetectorCell(cell)
			if err != nil {
				t.Fatal(err)
			}
			if a.Violations != 0 {
				sc, _ := detectorScenario(cell)
				v, _ := RunScenario(sc)
				t.Fatalf("cell has %d oracle violations: %+v", a.Violations, v.Violations)
			}
			b, err := RunDetectorCell(cell)
			if err != nil {
				t.Fatal(err)
			}
			if a.TraceHash != b.TraceHash {
				t.Fatalf("trace hashes differ: %s vs %s", a.TraceHash, b.TraceHash)
			}
		})
	}
}
