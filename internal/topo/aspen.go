package topo

import "fmt"

// AspenTree builds a 3-level Aspen tree ⟨f,0⟩ (Walraed-Sullivan et al.,
// CoNEXT 2013) — the fault-tolerant baseline of the paper's Table I. Fault
// tolerance f is added between the aggregation and core levels by wiring
// each aggregation switch to every core of its group with f+1 parallel
// links, paying for the redundancy with pod count:
//
//   - n/(f+1) pods, each with n/2 ToRs and n/2 aggregation switches
//     (full bipartite, exactly a fat tree pod);
//   - n/2 core groups of n/(2(f+1)) cores; aggregation switch j connects
//     to every core of group j with f+1 parallel links;
//   - hosts = n³/(4(f+1)) and switches = 5n²/(4(f+1)), Table I's row:
//     the fat tree's counts divided by f+1.
//
// A core↔aggregation link failure is absorbed instantly by ECMP over the
// parallel links (Aspen's fault-tolerant layer); ToR↔aggregation failures
// still wait for the control plane — the asymmetry the paper criticizes.
//
// n must be even and divisible by 2(f+1), which leaves at least 2 pods.
func AspenTree(n, f int) (*Topology, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("topo: aspen needs even n ≥ 4, got %d", n)
	}
	if f < 1 {
		return nil, fmt.Errorf("topo: aspen needs f ≥ 1, got %d", f)
	}
	dup := f + 1
	if n%(2*dup) != 0 {
		return nil, fmt.Errorf("topo: aspen needs n divisible by 2(f+1)=%d, got %d", 2*dup, n)
	}
	t, _, err := buildTree(fmt.Sprintf("aspen-%d-f%d", n, f), n,
		treeShape{pods: n / dup, torsPerPod: n / 2, coresPerGroup: n / (2 * dup), parallel: dup})
	return t, err
}
