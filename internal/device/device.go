// Package device models quantum processing units: qubit capacity managed
// as a free-qubit count (the paper's device.container.level), coupling-map
// topology, calibration data, and the IBM performance metrics (CLOPS,
// quantum volume) that drive the execution-time model.
//
// The type hierarchy mirrors the paper's §3: BaseQDevice (capacity and
// reservation bookkeeping) → QuantumDevice (graph-based qubit topology) →
// IBMQuantumDevice (CLOPS, QV, calibration-derived error score). In Go
// the refinement is expressed by struct embedding rather than
// inheritance; Device is the full IBM-style device used everywhere, and
// the narrower interfaces below document which layer a consumer needs.
package device

import (
	"fmt"
	"sort"

	"repro/internal/calib"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// BaseQDevice is the capacity-management view of a device.
type BaseQDevice interface {
	// Name returns the device identifier, e.g. "ibm_quebec".
	Name() string
	// NumQubits returns the device's total qubit capacity.
	NumQubits() int
	// FreeQubits returns the number of currently unreserved qubits.
	FreeQubits() int
}

// QuantumDevice adds coupling-map topology to BaseQDevice.
type QuantumDevice interface {
	BaseQDevice
	// Topology returns the device's qubit connectivity graph.
	Topology() *graph.Graph
}

// Allocation is a granted qubit reservation on one device. In strict
// topology mode PhysicalQubits records the connected subgraph assigned;
// in the paper's black-box mode (§5.2) it is nil.
type Allocation struct {
	Device         *Device
	Qubits         int
	PhysicalQubits []int
	released       bool
}

// Device is a simulated quantum processor. It satisfies BaseQDevice and
// QuantumDevice and corresponds to the paper's IBM_QuantumDevice.
type Device struct {
	name     string
	env      *sim.Environment
	capacity int
	free     int
	topo     *graph.Graph
	snapshot *calib.Snapshot
	clops    float64
	qv       float64
	score    float64

	// strict enables explicit connected-subgraph allocation instead of
	// the paper's black-box abstraction.
	strict   bool
	freeSet  map[int]bool // strict mode: physical qubits currently free
	busyTime float64      // integral of qubits-in-use over time
	lastT    float64
	jobsRun  int
}

// Option customizes device construction.
type Option func(*Device)

// WithStrictTopology enables explicit connected-subgraph qubit
// allocation. The default is the paper's black-box abstraction, which
// assumes any free qubit subset is connected (§5.2).
func WithStrictTopology() Option {
	return func(d *Device) { d.strict = true }
}

// New creates a device whose qubit capacity equals the topology's vertex
// count and whose error score is derived from the calibration snapshot
// with the paper's default weights.
func New(env *sim.Environment, topo *graph.Graph, snap *calib.Snapshot, clops, quantumVolume float64, opts ...Option) (*Device, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if topo.NumVertices() != snap.NumQubits() {
		return nil, fmt.Errorf("device %s: topology has %d qubits, calibration %d",
			snap.DeviceName, topo.NumVertices(), snap.NumQubits())
	}
	if clops <= 0 {
		return nil, fmt.Errorf("device %s: non-positive CLOPS %g", snap.DeviceName, clops)
	}
	if quantumVolume < 2 {
		return nil, fmt.Errorf("device %s: quantum volume %g < 2", snap.DeviceName, quantumVolume)
	}
	n := topo.NumVertices()
	d := &Device{
		name:     snap.DeviceName,
		env:      env,
		capacity: n,
		free:     n,
		topo:     topo,
		snapshot: snap,
		clops:    clops,
		qv:       quantumVolume,
		score:    calib.ErrorScore(snap, calib.DefaultWeights),
	}
	for _, o := range opts {
		o(d)
	}
	if d.strict {
		d.freeSet = make(map[int]bool, n)
		for v := 0; v < n; v++ {
			d.freeSet[v] = true
		}
	}
	return d, nil
}

// Name returns the device identifier.
func (d *Device) Name() string { return d.name }

// NumQubits returns total capacity.
func (d *Device) NumQubits() int { return d.capacity }

// FreeQubits returns the currently available qubit count.
func (d *Device) FreeQubits() int { return d.free }

// Topology returns the coupling map.
func (d *Device) Topology() *graph.Graph { return d.topo }

// Calibration returns the device's calibration snapshot.
func (d *Device) Calibration() *calib.Snapshot { return d.snapshot }

// CLOPS returns the device's circuit-layer-operations-per-second rating.
func (d *Device) CLOPS() float64 { return d.clops }

// QuantumVolume returns the device's quantum volume.
func (d *Device) QuantumVolume() float64 { return d.qv }

// ErrorScore returns the Eq. 2 error score (lower is better).
func (d *Device) ErrorScore() float64 { return d.score }

// JobsRun returns the number of sub-jobs executed so far.
func (d *Device) JobsRun() int { return d.jobsRun }

// Utilization returns the time-averaged fraction of qubits in use from
// simulation start until now.
func (d *Device) Utilization() float64 {
	now := d.env.Now()
	integral := d.busyTime + d.inUse()*(now-d.lastT)
	if now <= 0 {
		return 0
	}
	return integral / (now * float64(d.capacity))
}

// inUse returns the reserved qubit count as the float the utilization
// integral accumulates.
func (d *Device) inUse() float64 { return float64(d.capacity - d.free) }

// UtilizationState exposes the raw utilization integral (busy
// qubit-seconds and its fold point) plus the sub-job counter, for broker
// checkpoints. Restoring them on a fresh fleet makes utilization-aware
// policies see the same time-averaged history after a resume.
func (d *Device) UtilizationState() (busyTime, lastT float64, jobsRun int) {
	return d.busyTime, d.lastT, d.jobsRun
}

// RestoreUtilizationState reinstates a checkpointed utilization integral.
func (d *Device) RestoreUtilizationState(busyTime, lastT float64, jobsRun int) {
	d.busyTime = busyTime
	d.lastT = lastT
	d.jobsRun = jobsRun
}

// accrue folds elapsed busy time into the utilization integral.
func (d *Device) accrue() {
	now := d.env.Now()
	d.busyTime += d.inUse() * (now - d.lastT)
	d.lastT = now
}

// CanAllocate reports whether q qubits can be reserved right now. In
// black-box mode this is a free-level check; in strict mode the free
// region must contain a connected subgraph of size q.
func (d *Device) CanAllocate(q int) bool {
	if q <= 0 || q > d.FreeQubits() {
		return q == 0
	}
	if !d.strict {
		return true
	}
	return d.topo.LargestAvailableComponent(d.freeList()) >= q
}

// AllocateInto reserves q qubits immediately into a caller-owned
// Allocation, which may be reused across reservations: the broker
// recycles grant structs so its steady-state admit→complete cycle never
// allocates. The caller must have established feasibility
// (CanAllocate); an error means the reservation cannot be satisfied,
// which indicates a scheduler bug rather than a transient condition.
// Strict-topology mode still allocates for the physical-qubit
// assignment.
func (d *Device) AllocateInto(q int, a *Allocation) error {
	if q <= 0 {
		return fmt.Errorf("device %s: allocate %d qubits", d.name, q)
	}
	if q > d.FreeQubits() {
		return fmt.Errorf("device %s: allocate %d with only %d free", d.name, q, d.FreeQubits())
	}
	a.Device = d
	a.Qubits = q
	a.PhysicalQubits = nil
	a.released = false
	if d.strict {
		sub := d.topo.ConnectedSubgraph(q, d.freeList())
		if sub == nil {
			return fmt.Errorf("device %s: no connected %d-qubit region free", d.name, q)
		}
		for _, v := range sub {
			delete(d.freeSet, v)
		}
		a.PhysicalQubits = sub
	}
	d.accrue()
	d.free -= q
	d.jobsRun++
	return nil
}

// ReleaseDirect returns an allocation's qubits to the device. Releasing
// twice, or on another device, is an error: the scheduler must own
// allocation lifecycles exactly.
func (d *Device) ReleaseDirect(a *Allocation) error {
	if a.Device != d {
		return fmt.Errorf("device %s: release of allocation from %s", d.name, a.Device.name)
	}
	if a.released {
		return fmt.Errorf("device %s: double release", d.name)
	}
	a.released = true
	d.accrue()
	d.free += a.Qubits
	if d.strict {
		for _, v := range a.PhysicalQubits {
			d.freeSet[v] = true
		}
	}
	return nil
}

// freeList returns the sorted free physical qubits (strict mode).
func (d *Device) freeList() []int {
	out := make([]int, 0, len(d.freeSet))
	for v := range d.freeSet {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Recalibrate replaces the device's calibration snapshot (e.g. after a
// simulated calibration job) and recomputes the error score. The new
// snapshot must be valid and match the device's qubit count.
func (d *Device) Recalibrate(snap *calib.Snapshot) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	if snap.NumQubits() != d.NumQubits() {
		return fmt.Errorf("device %s: recalibration has %d qubits, device has %d",
			d.name, snap.NumQubits(), d.NumQubits())
	}
	d.snapshot = snap
	d.score = calib.ErrorScore(snap, calib.DefaultWeights)
	return nil
}

// ProcessTime returns the Eq. 3 execution time of a sub-job with the
// given shot count on this device, using the configured workload
// constants M and K.
func (d *Device) ProcessTime(m, k, shots int) float64 {
	return metrics.ExecutionTime(m, k, shots, d.qv, d.clops)
}

// String summarizes the device for logs.
func (d *Device) String() string {
	return fmt.Sprintf("%s{qubits=%d free=%d clops=%.0f score=%.5f}",
		d.name, d.NumQubits(), d.FreeQubits(), d.clops, d.score)
}

// Interface conformance checks.
var (
	_ BaseQDevice   = (*Device)(nil)
	_ QuantumDevice = (*Device)(nil)
)
