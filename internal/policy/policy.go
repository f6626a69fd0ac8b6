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
// Policies resolve by name through one fixed, name-ordered table (New,
// Names): the heuristics, and rlbase, which needs a trained model in
// Params.Model (internal/rlsched's Deploy builds one). Every name is a
// valid experiments task-matrix mode and config-file policy.
package policy

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

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
	// ErrorRank is the device's position, from 0, in the snapshot's
	// lowest-ErrorScore-first order as RankByError sets it. Fidelity
	// and Oracle read the order from it instead of sorting per call.
	ErrorRank int
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
	//
	// Allocate must not modify devices: the broker takes one snapshot
	// per dispatch pass and shows it to every queued job in turn. The
	// snapshot's ErrorRank fields are set (RankByError). The broker
	// does not call Allocate for a job larger than the fleet's free
	// qubits, where the contract above forces nil anyway, nor, for a
	// SizeRule policy, for a size it already refused under a snapshot
	// that has only shrunk since.
	Allocate(j *job.QJob, devices []DeviceState) []Allocation
}

// SizeRule marks a policy whose refusals the broker may remember by job
// size. A policy implements it only if all three hold:
//   - it keeps no state between calls;
//   - whether Allocate returns nil depends only on j.NumQubits and the
//     snapshot's Free, Capacity and ErrorRank;
//   - a refusal still holds after any device's Free shrinks.
//
// The broker then asks about each refused size once, until a device's
// Free grows or a rank changes. A policy that places every job that
// fits in the free qubits gains nothing from the mark, and one that
// draws randomness per call (rlbase) must never carry it.
type SizeRule interface {
	RefusesBySize()
}

// maxStackDevices sizes the on-stack device ranking buffers: fleets up
// to this size rank without allocating.
const maxStackDevices = 16

// RankByError sets every device's ErrorRank: its position in the
// lowest-ErrorScore-first order, ties broken by Name and then by fleet
// position. It is the one definition of that order. A snapshot builder
// calls it whenever an ErrorScore may have changed; fleets up to
// maxStackDevices rank without allocating.
func RankByError(states []DeviceState) {
	var buf [maxStackDevices]int
	order := indices(buf[:], len(states))
	slices.SortStableFunc(order, func(a, b int) int {
		da, db := &states[a], &states[b]
		if c := cmp.Compare(da.ErrorScore, db.ErrorScore); c != 0 {
			return c
		}
		return strings.Compare(da.Name, db.Name)
	})
	for r, i := range order {
		states[i].ErrorRank = r
	}
}

// byErrorRank returns the devices' indices lowest ErrorRank first, in
// buf when it is long enough. It costs one pass and no comparisons. It
// panics unless the ranks are a permutation of 0..n-1, which only a
// snapshot built without RankByError can break.
func byErrorRank(devices []DeviceState, buf []int) []int {
	n := len(devices)
	var order []int
	if n <= len(buf) {
		order = buf[:n]
	} else {
		order = make([]int, n)
	}
	for r := range order {
		order[r] = -1
	}
	for i := range devices {
		r := devices[i].ErrorRank
		if r < 0 || r >= n || order[r] >= 0 {
			panic(fmt.Sprintf("policy: ErrorRank %d on device %d is not a permutation of 0..%d: build the snapshot with RankByError",
				r, i, n-1))
		}
		order[r] = i
	}
	return order
}

// indices appends 0..n-1 to buf[:0].
func indices(buf []int, n int) []int {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
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
// different sort keys). The sort is stable, so devices that compare
// equal keep fleet order. Returns nil if total free capacity is short.
func greedyFill(j *job.QJob, devices []DeviceState, compare func(a, b *DeviceState) int) []Allocation {
	if totalFree(devices) < j.NumQubits {
		return nil
	}
	var buf [maxStackDevices]int
	order := indices(buf[:], len(devices))
	slices.SortStableFunc(order, func(x, y int) int {
		return compare(&devices[x], &devices[y])
	})
	return fill(devices, order, j.NumQubits)
}

// fill takes free qubits from devices in order until need is met.
func fill(devices []DeviceState, order []int, need int) []Allocation {
	var allocs []Allocation
	for _, i := range order {
		if need == 0 {
			break
		}
		if take := min(devices[i].Free, need); take > 0 {
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
	return greedyFill(j, devices, func(a, b *DeviceState) int {
		if c := cmp.Compare(b.CLOPS, a.CLOPS); c != 0 {
			return c // fastest first
		}
		return strings.Compare(a.Name, b.Name)
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
	return greedyFill(j, devices, func(a, b *DeviceState) int {
		if c := cmp.Compare(busyFraction(a), busyFraction(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Utilization, b.Utilization); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
}

// busyFraction is the device's instantaneous occupancy.
func busyFraction(d *DeviceState) float64 {
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
	return FromShares(Apportion(j.NumQubits, weights, caps))
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
	return FromShares(Apportion(j.NumQubits, weights, caps))
}

// Fidelity is the error-aware mode (§5): it ranks devices by calibration
// error score (the snapshot's ErrorRank) and commits each job to the
// minimal set of lowest-error devices that can hold it, waiting for
// those devices when they are busy. This concentrates work on the
// best-calibrated hardware (highest fidelity, fewest partitions) at the
// cost of queueing delay — the paper's central speed/fidelity
// trade-off.
type Fidelity struct{}

// Name implements Policy.
func (Fidelity) Name() string { return "fidelity" }

// RefusesBySize implements SizeRule: Fidelity refuses a job when the
// designated set, picked by Capacity in ErrorRank order, is too small
// or has too few Free qubits, and fewer Free qubits keep it too few.
func (Fidelity) RefusesBySize() {}

// Allocate implements Policy.
func (Fidelity) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	// Lowest error first, from the snapshot's ranks. Rejections
	// allocate nothing: the order lives on the stack.
	var buf [maxStackDevices]int
	order := byErrorRank(devices, buf[:])
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
	return fill(devices, order[:prefix], need)
}

// FromShares converts per-device shares, as Apportion returns them, to
// the Allocation form, dropping zero shares. It allocates the result
// once, and returns nil when no share is positive.
func FromShares(shares []int) []Allocation {
	n := 0
	for _, s := range shares {
		if s > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Allocation, 0, n)
	for i, s := range shares {
		if s > 0 {
			out = append(out, Allocation{DeviceIndex: i, Qubits: s})
		}
	}
	return out
}
