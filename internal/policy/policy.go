// Package policy implements the paper's device-selection strategies
// (§5): speed-based, error-aware (fidelity), and fair allocation, plus
// the Policy interface through which user-defined and RL-based brokers
// plug in (the RL policy lives in internal/rlsched to keep this package
// free of the learning stack).
//
// A policy decides, for one job and the current fleet state, how many
// qubits to reserve on which devices — or that the job cannot be placed
// yet and must wait. Partitioning and execution are shared by all modes
// (Algorithm 1); only selection differs.
//
// Policies resolve by name through this package's registry (Register,
// RegisterModel, New): the shipped heuristics self-register, rlbase
// registers from internal/rlsched as a model-requiring policy, and any
// registered name is a valid experiments task-matrix mode and
// config-file policy without touching the harness.
package policy

import (
	"fmt"
	"sort"

	"repro/internal/job"
)

// DeviceState is the scheduler-visible snapshot of one device at
// decision time.
type DeviceState struct {
	// Index identifies the device within the cloud's fleet slice.
	Index int
	// Name is the device name.
	Name string
	// Free is the currently available qubit count.
	Free int
	// Capacity is the device's total qubit count.
	Capacity int
	// ErrorScore is the Eq. 2 calibration-derived score (lower=better).
	ErrorScore float64
	// CLOPS is the device's throughput rating.
	CLOPS float64
	// Utilization is the device's time-averaged busy fraction.
	Utilization float64
	// Eps1Q, Eps2Q, EpsRO are the device's mean single-qubit, two-qubit,
	// and readout error rates from the current calibration. They feed
	// fidelity-predictive policies such as Oracle.
	Eps1Q, Eps2Q, EpsRO float64
}

// Allocation assigns a qubit count to one device.
type Allocation struct {
	DeviceIndex int
	Qubits      int
}

// Policy selects devices and partition sizes for incoming jobs.
type Policy interface {
	// Name identifies the policy in reports ("speed", "fidelity", ...).
	Name() string
	// Allocate returns the per-device qubit assignment for j, or nil if
	// the job cannot be placed now (the broker re-tries on the next
	// release). A non-nil result must satisfy: Σ qubits == j.NumQubits,
	// every assignment within the device's Free, every count > 0.
	Allocate(j *job.QJob, devices []DeviceState) []Allocation
}

// totalFree sums free qubits over a fleet snapshot.
func totalFree(devices []DeviceState) int {
	t := 0
	for _, d := range devices {
		t += d.Free
	}
	return t
}

// Validate checks that an allocation result satisfies the Policy
// contract against the device snapshot it was produced from. The broker
// calls this on every placement to fail fast on buggy (e.g.
// user-supplied) policies; it allocates only to build an error.
func Validate(j *job.QJob, devices []DeviceState, allocs []Allocation) error {
	if len(allocs) == 0 {
		return fmt.Errorf("policy: empty allocation for %s", j.ID)
	}
	total := 0
	for i, a := range allocs {
		if a.DeviceIndex < 0 || a.DeviceIndex >= len(devices) {
			return fmt.Errorf("policy: device index %d out of range", a.DeviceIndex)
		}
		for _, prev := range allocs[:i] {
			if prev.DeviceIndex == a.DeviceIndex {
				return fmt.Errorf("policy: device %d assigned twice", a.DeviceIndex)
			}
		}
		if a.Qubits <= 0 {
			return fmt.Errorf("policy: non-positive share %d on device %d", a.Qubits, a.DeviceIndex)
		}
		if a.Qubits > devices[a.DeviceIndex].Free {
			return fmt.Errorf("policy: share %d exceeds free %d on %s",
				a.Qubits, devices[a.DeviceIndex].Free, devices[a.DeviceIndex].Name)
		}
		total += a.Qubits
	}
	if total != j.NumQubits {
		return fmt.Errorf("policy: shares sum to %d, job needs %d", total, j.NumQubits)
	}
	return nil
}

// greedyFill allocates the job over free devices in the given preference
// order, filling each device before moving to the next — the minimal-k
// selection shared by the speed and fair modes (Algorithm 1 with
// different sort keys). Returns nil if total free capacity is short.
func greedyFill(j *job.QJob, devices []DeviceState, less func(a, b DeviceState) bool) []Allocation {
	if totalFree(devices) < j.NumQubits {
		return nil
	}
	order := make([]int, len(devices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return less(devices[order[x]], devices[order[y]])
	})
	need := j.NumQubits
	var allocs []Allocation
	for _, i := range order {
		if need == 0 {
			break
		}
		take := devices[i].Free
		if take > need {
			take = need
		}
		if take > 0 {
			allocs = append(allocs, Allocation{DeviceIndex: i, Qubits: take})
			need -= take
		}
	}
	return allocs
}

// Speed is the speed-based mode (§5): it selects devices with the
// fastest processing capability, greedily filling the highest-CLOPS
// devices first with the minimal number of partitions.
type Speed struct{}

// Name implements Policy.
func (Speed) Name() string { return "speed" }

// Allocate implements Policy.
func (Speed) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	return greedyFill(j, devices, func(a, b DeviceState) bool {
		if a.CLOPS != b.CLOPS {
			return a.CLOPS > b.CLOPS
		}
		return a.Name < b.Name
	})
}

// Fair is the fair mode (§5): it selects the devices with the lowest
// current utilization first, balancing load across the fleet while
// keeping partition counts minimal.
type Fair struct{}

// Name implements Policy.
func (Fair) Name() string { return "fair" }

// Allocate implements Policy.
func (Fair) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	return greedyFill(j, devices, func(a, b DeviceState) bool {
		ba := busyFraction(a)
		bb := busyFraction(b)
		if ba != bb {
			return ba < bb
		}
		if a.Utilization != b.Utilization {
			return a.Utilization < b.Utilization
		}
		return a.Name < b.Name
	})
}

// busyFraction is the device's instantaneous occupancy.
func busyFraction(d DeviceState) float64 {
	if d.Capacity == 0 {
		return 1
	}
	return float64(d.Capacity-d.Free) / float64(d.Capacity)
}

// ProportionalSpeed is an ablation variant of the speed mode that
// splits every job across all available devices with shares weighted by
// CLOPS instead of filling the fastest devices first. It trades more
// inter-device communication for marginally smaller partitions.
type ProportionalSpeed struct{}

// Name implements Policy.
func (ProportionalSpeed) Name() string { return "speed-proportional" }

// Allocate implements Policy.
func (ProportionalSpeed) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	if totalFree(devices) < j.NumQubits {
		return nil
	}
	weights := make([]float64, len(devices))
	caps := make([]int, len(devices))
	for i, d := range devices {
		weights[i] = d.CLOPS
		caps[i] = d.Free
	}
	return toAllocations(Apportion(j.NumQubits, weights, caps))
}

// ProportionalFair is an ablation variant of the fair mode that splits
// every job across all available devices proportionally to free
// capacity (maximum spreading).
type ProportionalFair struct{}

// Name implements Policy.
func (ProportionalFair) Name() string { return "fair-proportional" }

// Allocate implements Policy.
func (ProportionalFair) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	if totalFree(devices) < j.NumQubits {
		return nil
	}
	weights := make([]float64, len(devices))
	caps := make([]int, len(devices))
	for i, d := range devices {
		weights[i] = float64(d.Free)
		caps[i] = d.Free
	}
	return toAllocations(Apportion(j.NumQubits, weights, caps))
}

// Fidelity is the error-aware mode (§5): it ranks devices by calibration
// error score and commits each job to the minimal set of lowest-error
// devices that can hold it, waiting for those devices when they are
// busy. This concentrates work on the best-calibrated hardware (highest
// fidelity, fewest partitions) at the cost of queueing delay — the
// paper's central speed/fidelity trade-off.
type Fidelity struct{}

// Name implements Policy.
func (Fidelity) Name() string { return "fidelity" }

// Allocate implements Policy.
func (Fidelity) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	// Rank by error score (ties by name for determinism).
	order := make([]int, len(devices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := devices[order[a]], devices[order[b]]
		if da.ErrorScore != db.ErrorScore {
			return da.ErrorScore < db.ErrorScore
		}
		return da.Name < db.Name
	})
	// Minimal prefix by total capacity: the designated low-error set.
	need := j.NumQubits
	capSum := 0
	prefix := 0
	for prefix < len(order) && capSum < need {
		capSum += devices[order[prefix]].Capacity
		prefix++
	}
	if capSum < need {
		return nil // job larger than the whole cloud
	}
	// Wait until the designated set has room (do not spill to worse
	// devices — that is the point of this mode).
	freeSum := 0
	for _, i := range order[:prefix] {
		freeSum += devices[i].Free
	}
	if freeSum < need {
		return nil
	}
	var allocs []Allocation
	for _, i := range order[:prefix] {
		if need == 0 {
			break
		}
		take := devices[i].Free
		if take > need {
			take = need
		}
		if take > 0 {
			allocs = append(allocs, Allocation{DeviceIndex: i, Qubits: take})
			need -= take
		}
	}
	return allocs
}

// toAllocations converts apportioned shares to the Allocation form,
// dropping zero shares.
func toAllocations(shares []int) []Allocation {
	var out []Allocation
	for i, s := range shares {
		if s > 0 {
			out = append(out, Allocation{DeviceIndex: i, Qubits: s})
		}
	}
	return out
}
