package core

import (
	"math"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
)

// TestSimulatedFidelityMatchesPrediction cross-checks the simulator's
// per-job fidelity (jobRun.fidelity) against the policy package's
// independent PredictFidelity implementation: they implement the same
// Eq. 4–8 model and must agree exactly.
func TestSimulatedFidelityMatchesPrediction(t *testing.T) {
	e := buildEnv(t, policy.Fidelity{})
	jobs := smallWorkload(t, 20)
	states := e.Cloud.statesInto()
	// Record the fidelity-policy allocation prediction per job while
	// the fleet is idle (sequential check; run one job at a time).
	for _, j := range jobs {
		j := *j
		j.ArrivalTime = 0
		allocs := (policy.Fidelity{}).Allocate(&j, states)
		if allocs == nil {
			t.Fatalf("job %s not placeable on idle fleet", j.ID)
		}
		predicted := policy.PredictFidelity(&j, states, allocs, e.Cloud.cfg.Phi)

		env2 := buildEnv(t, policy.Fidelity{})
		env2.SubmitWorkload([]*job.QJob{&j})
		if _, err := env2.Run(); err != nil {
			t.Fatal(err)
		}
		got := env2.Records.Get(j.ID).Fidelity
		if math.Abs(got-predicted) > 1e-12 {
			t.Fatalf("job %s: simulated %g vs predicted %g", j.ID, got, predicted)
		}
	}
}

// TestOraclePolicyEndToEnd runs the oracle baseline through the full
// simulator. The oracle is optimal among *immediate* placements, so it
// must dominate every other work-conserving policy (speed, fair,
// rlbase-style spreading) on mean fidelity over the same workload. The
// error-aware Fidelity policy is NOT work-conserving — it waits for its
// designated low-error devices — and can therefore exceed the oracle,
// which is itself an informative result: queueing patience buys more
// fidelity than perfect myopic placement.
func TestOraclePolicyEndToEnd(t *testing.T) {
	jobs := smallWorkload(t, 30)
	run := func(pol policy.Policy) Results {
		e := buildEnv(t, pol)
		e.SubmitWorkload(jobs)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		return res
	}
	oracle := run(policy.Oracle{})
	if oracle.JobsFinished != 30 {
		t.Fatalf("oracle finished %d", oracle.JobsFinished)
	}
	for _, pol := range []policy.Policy{policy.Speed{}, policy.Fair{}, policy.ProportionalFair{}} {
		other := run(pol)
		if oracle.FidelityMean < other.FidelityMean-1e-9 {
			t.Fatalf("oracle muF %g below work-conserving %s's %g",
				oracle.FidelityMean, pol.Name(), other.FidelityMean)
		}
	}
	// And the patience effect: the waiting fidelity policy trades
	// makespan for fidelity even against the myopic oracle.
	fid := run(policy.Fidelity{})
	if fid.FidelityMean > oracle.FidelityMean && fid.TotalSimTime <= oracle.TotalSimTime {
		t.Fatal("fidelity policy should pay for its fidelity advantage with makespan")
	}
}
