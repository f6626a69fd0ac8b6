package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// finishedRow returns the finished row of job id.
func finishedRow(t *testing.T, e *QCloudSimEnv, id string) *records.JobStats {
	t.Helper()
	for _, s := range e.Records.Finished() {
		if s.JobID == id {
			return s
		}
	}
	t.Fatalf("job %s has no finished row", id)
	return nil
}

// buildEnv assembles a standard-fleet simulation with the given policy.
func buildEnv(t *testing.T, pol policy.Policy) *QCloudSimEnv {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatalf("StandardFleet: %v", err)
	}
	e, err := NewQCloudSimEnv(env, fleet, pol, DefaultConfig())
	if err != nil {
		t.Fatalf("NewQCloudSimEnv: %v", err)
	}
	return e
}

func smallWorkload(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return jobs
}

func TestConstructionValidation(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, _ := device.StandardFleet(env, 1)
	if _, err := NewQCloudSimEnv(env, nil, policy.Speed{}, DefaultConfig()); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewQCloudSimEnv(env, fleet, nil, DefaultConfig()); err == nil {
		t.Error("nil policy accepted")
	}
	bad := DefaultConfig()
	bad.M = 0
	if _, err := NewQCloudSimEnv(env, fleet, policy.Speed{}, bad); err == nil {
		t.Error("invalid config accepted")
	}
	bad = DefaultConfig()
	bad.Phi = 1.5
	if _, err := NewQCloudSimEnv(env, fleet, policy.Speed{}, bad); err == nil {
		t.Error("invalid phi accepted")
	}
	bad = DefaultConfig()
	bad.Lambda = -1
	if _, err := NewQCloudSimEnv(env, fleet, policy.Speed{}, bad); err == nil {
		t.Error("invalid lambda accepted")
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	j := &job.QJob{ID: "solo", NumQubits: 190, Depth: 10, Shots: 40000,
		TwoQubitGates: 475, ArrivalTime: 5}
	e.SubmitWorkload([]*job.QJob{j})
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.JobsFinished != 1 {
		t.Fatalf("finished = %d", res.JobsFinished)
	}
	s := finishedRow(t, e, "solo")
	if s.Arrival != 5 {
		t.Fatalf("arrival = %g", s.Arrival)
	}
	if s.Start != 5 {
		t.Fatalf("start = %g (idle cloud should start immediately)", s.Start)
	}
	if s.Devices < 2 {
		t.Fatalf("devices = %d; a 190-qubit job must split", s.Devices)
	}
	if s.Fidelity <= 0 || s.Fidelity >= 1 {
		t.Fatalf("fidelity = %g", s.Fidelity)
	}
	// Finish = start + max partition time + comm time.
	wantComm := metrics.CommunicationTime(190, 0.02, s.Devices)
	if math.Abs(s.CommTime-wantComm) > 1e-9 {
		t.Fatalf("comm = %g, want %g", s.CommTime, wantComm)
	}
	if s.Finish <= s.Start+wantComm {
		t.Fatal("finish time does not include processing")
	}
	// All qubits must be back.
	if device.TotalFree(e.Cloud.Devices()) != 635 {
		t.Fatalf("qubits leaked: free = %d", device.TotalFree(e.Cloud.Devices()))
	}
}

func TestJobTimeIsMaxOverPartitions(t *testing.T) {
	// The proportional-fair ablation policy spreads over all 5 devices;
	// the job must finish no earlier than the slowest partition.
	e := buildEnv(t, policy.ProportionalFair{})
	j := &job.QJob{ID: "x", NumQubits: 200, Depth: 8, Shots: 50000, TwoQubitGates: 400}
	e.SubmitWorkload([]*job.QJob{j})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := finishedRow(t, e, "x")
	// Fair spreads over all 5 devices: slowest is kawasaki (29k CLOPS).
	slowest := metrics.ExecutionTime(10, 10, 50000, 128, 29000)
	want := slowest + s.CommTime
	if math.Abs(s.ExecTime()-want) > 1e-6 {
		t.Fatalf("exec time %g, want %g (max partition + comm)", s.ExecTime(), want)
	}
}

func TestQueueingWhenCloudSaturated(t *testing.T) {
	// Submit two jobs that together exceed 635 qubits: the second must
	// wait for the first to release.
	e := buildEnv(t, policy.Speed{})
	jobs := []*job.QJob{
		{ID: "a", NumQubits: 500, Depth: 5, Shots: 20000, TwoQubitGates: 625},
		{ID: "b", NumQubits: 250, Depth: 5, Shots: 20000, TwoQubitGates: 300},
	}
	e.SubmitWorkload(jobs)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := finishedRow(t, e, "a"), finishedRow(t, e, "b")
	if sb.Start < sa.Finish {
		t.Fatalf("b started at %g before a finished at %g", sb.Start, sa.Finish)
	}
	if sb.WaitTime() <= 0 {
		t.Fatal("b should have waited")
	}
	if res.JobsFinished != 2 {
		t.Fatalf("finished = %d", res.JobsFinished)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	var jobs []*job.QJob
	for i := 0; i < 6; i++ {
		jobs = append(jobs, &job.QJob{
			ID: string(rune('a' + i)), NumQubits: 300,
			Depth: 5, Shots: 20000, TwoQubitGates: 375,
		})
	}
	e.SubmitWorkload(jobs)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var lastStart float64
	for _, j := range jobs {
		s := finishedRow(t, e, j.ID)
		if s.Start < lastStart {
			t.Fatalf("job %s started at %g before its predecessor at %g", j.ID, s.Start, lastStart)
		}
		lastStart = s.Start
	}
}

func TestOversizedJobReportsError(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	e.SubmitWorkload([]*job.QJob{{ID: "too-big", NumQubits: 700, Depth: 5, Shots: 1000, TwoQubitGates: 1}})
	if _, err := e.Run(); err == nil {
		t.Fatal("oversized job should surface an error")
	}
}

func TestFidelityPolicyEndToEnd(t *testing.T) {
	e := buildEnv(t, policy.Fidelity{})
	jobs := smallWorkload(t, 30)
	e.SubmitWorkload(jobs)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsFinished != 30 {
		t.Fatalf("finished = %d", res.JobsFinished)
	}
	// The fidelity policy should use few devices per job (mostly the
	// designated minimal low-error set).
	if res.MeanDevicesPerJob > 3.0 {
		t.Fatalf("fidelity mode k = %g, want small", res.MeanDevicesPerJob)
	}
	// Only low-error devices should carry load: kawasaki (worst) must
	// see none of it.
	for _, share := range e.Records.DeviceLoadShare() {
		if share.Name == "ibm_kawasaki" && share.SubJobs > 0 {
			t.Fatalf("kawasaki should be avoided by the fidelity policy, ran %d sub-jobs", share.SubJobs)
		}
	}
}

func TestSpeedVsFidelityTradeoffOnBatch(t *testing.T) {
	// The paper's core result in miniature: error-aware scheduling gives
	// higher fidelity but longer makespan than speed scheduling.
	jobs := smallWorkload(t, 40)
	eSpeed := buildEnv(t, policy.Speed{})
	eSpeed.SubmitWorkload(jobs)
	rSpeed, err := eSpeed.Run()
	if err != nil {
		t.Fatal(err)
	}
	eFid := buildEnv(t, policy.Fidelity{})
	eFid.SubmitWorkload(jobs)
	rFid, err := eFid.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rFid.FidelityMean <= rSpeed.FidelityMean {
		t.Fatalf("fidelity policy μF=%g should beat speed μF=%g",
			rFid.FidelityMean, rSpeed.FidelityMean)
	}
	if rFid.TotalSimTime <= rSpeed.TotalSimTime {
		t.Fatalf("fidelity policy Tsim=%g should exceed speed Tsim=%g",
			rFid.TotalSimTime, rSpeed.TotalSimTime)
	}
	if rFid.TotalCommTime >= rSpeed.TotalCommTime {
		t.Fatalf("fidelity policy Tcomm=%g should be below speed Tcomm=%g",
			rFid.TotalCommTime, rSpeed.TotalCommTime)
	}
}

func TestNoQubitLeaksAcrossManyJobs(t *testing.T) {
	for _, pol := range []policy.Policy{policy.Speed{}, policy.Fair{}, policy.Fidelity{}} {
		e := buildEnv(t, pol)
		e.SubmitWorkload(smallWorkload(t, 50))
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if free := device.TotalFree(e.Cloud.Devices()); free != 635 {
			t.Fatalf("%s: leaked qubits, free = %d", pol.Name(), free)
		}
		if e.Cloud.PendingJobs() != 0 {
			t.Fatalf("%s: pending jobs remain", pol.Name())
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Results {
		e := buildEnv(t, policy.Fair{})
		e.SubmitWorkload(smallWorkload(t, 25))
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation not deterministic:\n%v\n%v", a, b)
	}
}

func TestResultsString(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	e.SubmitWorkload(smallWorkload(t, 5))
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "speed") || !strings.Contains(s, "Tsim") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCommunicationScalesWithPartitions(t *testing.T) {
	// Compare per-job comm time between a 2-partition (fidelity) and a
	// 5-partition (fair) allocation of the same job.
	j := &job.QJob{ID: "c", NumQubits: 190, Depth: 10, Shots: 30000, TwoQubitGates: 475}

	eFid := buildEnv(t, policy.Fidelity{})
	eFid.SubmitWorkload([]*job.QJob{{ID: "c", NumQubits: 190, Depth: 10, Shots: 30000, TwoQubitGates: 475}})
	if _, err := eFid.Run(); err != nil {
		t.Fatal(err)
	}
	eFair := buildEnv(t, policy.ProportionalFair{})
	eFair.SubmitWorkload([]*job.QJob{j})
	if _, err := eFair.Run(); err != nil {
		t.Fatal(err)
	}
	commFid := finishedRow(t, eFid, "c").CommTime
	commFair := finishedRow(t, eFair, "c").CommTime
	if commFid >= commFair {
		t.Fatalf("2-way comm %g should be below 5-way comm %g", commFid, commFair)
	}
	// Exact values per Eq. 9: λ q (k−1).
	if math.Abs(commFid-0.02*190*1) > 1e-9 {
		t.Fatalf("fidelity comm = %g, want %g", commFid, 0.02*190*1)
	}
	if math.Abs(commFair-0.02*190*4) > 1e-9 {
		t.Fatalf("fair comm = %g, want %g", commFair, 0.02*190*4)
	}
}

func TestUnsubmittedRunIsEmpty(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsFinished != 0 || r.TotalSimTime != 0 {
		t.Fatalf("empty run: %+v", r)
	}
}
