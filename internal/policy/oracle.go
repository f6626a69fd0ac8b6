package policy

import (
	"fmt"
	"math"

	"repro/internal/job"
	"repro/internal/metrics"
)

// Oracle is a fidelity-clairvoyant baseline: for each job it enumerates
// every device subset (filled greedily lowest-error-first within the
// subset), predicts the resulting final fidelity with the exact Eq. 4–8
// model, and picks the maximizer among currently-free devices. It bounds
// what any *work-conserving* (place-immediately) policy — including the
// trained RL agent — can achieve on the fidelity metric, at the cost of
// exponential enumeration (fine for the paper's 5-device cloud; capped
// at 16 devices).
//
// Two caveats make Oracle an analysis baseline rather than a deployable
// mode: it evaluates the simulator's own fidelity model exactly, and it
// never waits — the non-work-conserving Fidelity policy can beat it by
// queueing for the best devices (see core's TestOraclePolicyEndToEnd).
type Oracle struct {
	// Phi is the Eq. 8 penalty used for prediction (0 means
	// metrics.DefaultPhi). It must match the simulation's configured
	// penalty for the oracle property to hold.
	Phi float64
}

// Name implements Policy.
func (Oracle) Name() string { return "oracle" }

// Allocate implements Policy.
func (o Oracle) Allocate(j *job.QJob, devices []DeviceState) []Allocation {
	if len(devices) > 16 {
		panic(fmt.Sprintf("policy: Oracle over %d devices is intractable", len(devices)))
	}
	if totalFree(devices) < j.NumQubits {
		return nil
	}
	phi := o.Phi
	if phi == 0 {
		phi = metrics.DefaultPhi
	}
	bestFid := math.Inf(-1)
	var best []Allocation
	for mask := 1; mask < 1<<len(devices); mask++ {
		allocs, ok := o.fillSubset(j, devices, mask)
		if !ok {
			continue
		}
		fid := PredictFidelity(j, devices, allocs, phi)
		if fid > bestFid {
			bestFid = fid
			best = allocs
		}
	}
	return best
}

// fillSubset greedily fills the masked devices lowest-error-first,
// returning false if their free capacity cannot hold the job.
func (Oracle) fillSubset(j *job.QJob, devices []DeviceState, mask int) ([]Allocation, bool) {
	var members []int
	free := 0
	for i := range devices {
		if mask&(1<<i) != 0 {
			members = append(members, i)
			free += devices[i].Free
		}
	}
	if free < j.NumQubits {
		return nil, false
	}
	// Lowest error score first; name tie-break for determinism.
	for a := 1; a < len(members); a++ {
		for b := a; b > 0; b-- {
			da, db := devices[members[b-1]], devices[members[b]]
			if da.ErrorScore > db.ErrorScore ||
				(da.ErrorScore == db.ErrorScore && da.Name > db.Name) {
				members[b-1], members[b] = members[b], members[b-1]
			}
		}
	}
	need := j.NumQubits
	var allocs []Allocation
	for _, i := range members {
		if need == 0 {
			// Subset member unused: this subset duplicates a smaller
			// one; skip so each effective partition set is evaluated
			// once.
			return nil, false
		}
		take := devices[i].Free
		if take > need {
			take = need
		}
		if take == 0 {
			return nil, false
		}
		allocs = append(allocs, Allocation{DeviceIndex: i, Qubits: take})
		need -= take
	}
	return allocs, need == 0
}

// PredictFidelity evaluates the Eq. 4–8 final-fidelity model for a
// candidate allocation using the device snapshot's mean error rates. It
// mirrors the simulator's own per-job computation in core, making it
// usable both by predictive policies and as a test oracle.
func PredictFidelity(j *job.QJob, devices []DeviceState, allocs []Allocation, phi float64) float64 {
	fids := make([]float64, len(allocs))
	qubits := make([]int, len(allocs))
	for i, a := range allocs {
		d := devices[a.DeviceIndex]
		t2i := int(math.Round(float64(j.TwoQubitGates) * float64(a.Qubits) / float64(j.NumQubits)))
		fids[i] = metrics.PartitionFidelity(d.Eps1Q, d.Eps2Q, d.EpsRO, j.Depth, a.Qubits, t2i)
		qubits[i] = a.Qubits
	}
	return metrics.FinalFidelity(fids, qubits, phi)
}
