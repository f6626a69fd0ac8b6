package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// buildBackfillEnv assembles a simulation with backfill dispatch.
func buildBackfillEnv(t *testing.T, pol policy.Policy) *QCloudSimEnv {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Backfill = true
	e, err := NewQCloudSimEnv(env, fleet, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func backfillJobs() []*job.QJob {
	return []*job.QJob{
		// Occupies most of the cloud.
		{ID: "big-1", NumQubits: 500, Depth: 5, Shots: 40000, TwoQubitGates: 625},
		// Cannot fit alongside big-1 (500+300 > 635): blocked head.
		{ID: "big-2", NumQubits: 300, Depth: 5, Shots: 40000, TwoQubitGates: 375},
		// Fits in the 135 remaining qubits: a backfill candidate.
		{ID: "small", NumQubits: 130, Depth: 5, Shots: 40000, TwoQubitGates: 163},
	}
}

func TestBackfillLetsSmallJobSkipBlockedHead(t *testing.T) {
	e := buildBackfillEnv(t, policy.Speed{})
	e.SubmitWorkload(backfillJobs())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	small := finishedRow(t, e, "small")
	big2 := finishedRow(t, e, "big-2")
	if small.Start >= big2.Start {
		t.Fatalf("backfill should start small (%g) before blocked big-2 (%g)",
			small.Start, big2.Start)
	}
	if small.Start != 0 {
		t.Fatalf("small should start immediately via backfill, started at %g", small.Start)
	}
}

func TestFIFOHoldsSmallJobBehindBlockedHead(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewQCloudSimEnv(env, fleet, policy.Speed{}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitWorkload(backfillJobs())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	small := finishedRow(t, e, "small")
	big2 := finishedRow(t, e, "big-2")
	if small.Start < big2.Start {
		t.Fatalf("FIFO must not let small (%g) pass big-2 (%g)", small.Start, big2.Start)
	}
}

func TestBackfillStillCompletesEverything(t *testing.T) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 60
	cfg.Seed = 11
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []policy.Policy{policy.Speed{}, policy.Fidelity{}, policy.Fair{}} {
		e := buildBackfillEnv(t, pol)
		e.SubmitWorkload(jobs)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.JobsFinished != 60 {
			t.Fatalf("%s: finished %d", pol.Name(), res.JobsFinished)
		}
		if free := device.TotalFree(e.Cloud.Devices()); free != 635 {
			t.Fatalf("%s: leaked qubits: %d", pol.Name(), free)
		}
	}
}

func TestBackfillNeverSlowerMakespan(t *testing.T) {
	// On the same workload, backfill's makespan must not exceed FIFO's
	// (it only adds placements when FIFO would idle).
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 80
	cfg.Seed = 13
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(backfill bool) float64 {
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		c := DefaultConfig()
		c.Backfill = backfill
		e, err := NewQCloudSimEnv(env, fleet, policy.Fidelity{}, c)
		if err != nil {
			t.Fatal(err)
		}
		e.SubmitWorkload(jobs)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSimTime
	}
	fifo := run(false)
	backfill := run(true)
	if backfill > fifo*1.001 {
		t.Fatalf("backfill makespan %g exceeds FIFO %g", backfill, fifo)
	}
}
