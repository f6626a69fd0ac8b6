package device

import "repro/internal/sim"

// StandardFleet builds the paper's five-device case-study cloud:
// ibm_strasbourg, ibm_brussels, ibm_kyiv, ibm_quebec, ibm_kawasaki — all
// 127-qubit Eagle heavy-hex devices with QV 128 and the paper's CLOPS
// ratings — using synthetic calibration snapshots drawn from the given
// seed (see internal/calib.StandardProfiles).
func StandardFleet(env *sim.Environment, seed int64) ([]*Device, error) {
	return standardPreset.build(env, seed)
}

// TotalCapacity sums the qubit capacities of a fleet.
func TotalCapacity(fleet []*Device) int {
	total := 0
	for _, d := range fleet {
		total += d.NumQubits()
	}
	return total
}

// MaxCapacity returns the largest single-device capacity in the fleet.
func MaxCapacity(fleet []*Device) int {
	max := 0
	for _, d := range fleet {
		if d.NumQubits() > max {
			max = d.NumQubits()
		}
	}
	return max
}

// TotalFree sums currently free qubits across the fleet.
func TotalFree(fleet []*Device) int {
	total := 0
	for _, d := range fleet {
		total += d.FreeQubits()
	}
	return total
}
