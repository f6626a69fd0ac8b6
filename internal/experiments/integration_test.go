package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestFeatureMatrix exercises every allocation policy crossed with the
// dispatch and calibration-drift extensions on one shared workload,
// asserting the global invariants: all jobs finish, no qubits leak, no
// pending jobs remain, fidelities stay in (0,1), and T_comm is zero
// exactly when every job ran on a single device (never, for this
// workload, per Eq. 1).
func TestFeatureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix integration test")
	}
	cs := smallCase()
	jobs, err := cs.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	policies := []policy.Policy{
		policy.Speed{}, policy.Fidelity{}, policy.Fair{},
		policy.ProportionalSpeed{}, policy.ProportionalFair{},
		policy.Oracle{},
	}
	for _, pol := range policies {
		for _, backfill := range []bool{false, true} {
			for _, drift := range []bool{false, true} {
				name := fmt.Sprintf("%s/backfill=%v/drift=%v", pol.Name(), backfill, drift)
				t.Run(name, func(t *testing.T) {
					env := sim.NewEnvironment()
					fleet, err := device.StandardFleet(env, cs.FleetSeed)
					if err != nil {
						t.Fatal(err)
					}
					cfg := core.DefaultConfig()
					cfg.Backfill = backfill
					if drift {
						cfg.Drift = core.DriftConfig{IntervalS: 3600, Rel: 0.25, Seed: 3}
					}
					simEnv, err := core.NewQCloudSimEnv(env, fleet, pol, cfg)
					if err != nil {
						t.Fatal(err)
					}
					simEnv.SubmitWorkload(jobs)
					res, err := simEnv.Run()
					if err != nil {
						t.Fatal(err)
					}
					if res.JobsFinished != len(jobs) {
						t.Fatalf("finished %d of %d", res.JobsFinished, len(jobs))
					}
					if free := device.TotalFree(simEnv.Cloud.Devices()); free != 635 {
						t.Fatalf("leaked qubits: free=%d", free)
					}
					if simEnv.Cloud.PendingJobs() != 0 {
						t.Fatal("pending jobs remain")
					}
					if res.FidelityMean <= 0 || res.FidelityMean >= 1 {
						t.Fatalf("muF = %g", res.FidelityMean)
					}
					if res.TotalCommTime <= 0 {
						t.Fatal("Eq.1 workload must always incur communication")
					}
					if res.MeanDevicesPerJob < 2 {
						t.Fatalf("k = %g; every job exceeds one device", res.MeanDevicesPerJob)
					}
				})
			}
		}
	}
}
