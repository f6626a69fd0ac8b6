package core

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// driftEnv builds the standard-fleet batch simulation with drift
// configured; its broker starts drifting when the first job arrives.
func driftEnv(t *testing.T, pol policy.Policy, drift DriftConfig) *QCloudSimEnv {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Drift = drift
	e, err := NewQCloudSimEnv(env, fleet, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Drift ticks only while the broker has jobs: without a workload, the
// environment has nothing to do.
func TestCalibrationDriftRequiresWorkload(t *testing.T) {
	e := driftEnv(t, policy.Speed{}, DriftConfig{IntervalS: 3600, Rel: 0.1, Seed: 1})
	before := e.Cloud.Devices()[0].ErrorScore()
	e.Env.Run()
	if now := e.Env.Now(); now != 0 {
		t.Fatalf("drift ran without a workload: clock at %g", now)
	}
	if after := e.Cloud.Devices()[0].ErrorScore(); after != before {
		t.Fatalf("drift changed a score without a workload: %g -> %g", before, after)
	}
}

func TestCalibrationDriftValidation(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []DriftConfig{
		{IntervalS: -5, Rel: 0.1, Seed: 1}, // an error, not "no drift"
		{IntervalS: 3600, Rel: -1, Seed: 1},
	} {
		cfg := DefaultConfig()
		cfg.Drift = d
		if _, err := NewQCloudSimEnv(env, fleet, policy.Speed{}, cfg); err == nil {
			t.Errorf("drift %+v accepted", d)
		}
	}
	// A zero interval disables drift; the magnitude is then ignored.
	cfg := DefaultConfig()
	cfg.Drift = DriftConfig{Rel: -1}
	if _, err := NewQCloudSimEnv(env, fleet, policy.Speed{}, cfg); err != nil {
		t.Errorf("disabled drift rejected: %v", err)
	}
}

func TestCalibrationDriftChangesScoresAndTerminates(t *testing.T) {
	e := driftEnv(t, policy.Speed{}, DriftConfig{IntervalS: 1800, Rel: 0.2, Seed: 7})
	before := make(map[string]float64)
	for _, d := range e.Cloud.Devices() {
		before[d.Name()] = d.ErrorScore()
	}
	e.SubmitWorkload(smallWorkload(t, 30))
	res, err := e.Run() // must terminate despite the background process
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsFinished != 30 {
		t.Fatalf("finished = %d", res.JobsFinished)
	}
	changed := 0
	for _, d := range e.Cloud.Devices() {
		if d.ErrorScore() != before[d.Name()] {
			changed++
		}
		if d.ErrorScore() <= 0 || d.ErrorScore() > 1 {
			t.Fatalf("%s: drifted score %g out of range", d.Name(), d.ErrorScore())
		}
	}
	if changed == 0 {
		t.Fatal("drift never changed any error score")
	}
}

func TestCalibrationDriftReroutesFidelityPolicy(t *testing.T) {
	// Without drift the fidelity policy sends every job to the same
	// designated pair; with strong drift the error ranking churns and
	// load reaches more devices.
	staticEnv := buildEnv(t, policy.Fidelity{})
	staticEnv.SubmitWorkload(smallWorkload(t, 40))
	if _, err := staticEnv.Run(); err != nil {
		t.Fatal(err)
	}
	staticDevices := len(staticEnv.Records.DeviceLoadShare())

	drifting := driftEnv(t, policy.Fidelity{}, DriftConfig{IntervalS: 2000, Rel: 0.5, Seed: 11})
	drifting.SubmitWorkload(smallWorkload(t, 40))
	if _, err := drifting.Run(); err != nil {
		t.Fatal(err)
	}
	driftDevices := len(drifting.Records.DeviceLoadShare())

	if staticDevices > 3 {
		t.Fatalf("static fidelity policy used %d devices, expected a small designated set", staticDevices)
	}
	if driftDevices <= staticDevices {
		t.Fatalf("drift should spread load: static %d devices, drift %d", staticDevices, driftDevices)
	}
	if free := device.TotalFree(drifting.Cloud.Devices()); free != 635 {
		t.Fatalf("leaked qubits under drift: %d", free)
	}
}

func TestCalibrationDriftDeterministic(t *testing.T) {
	run := func() Results {
		e := driftEnv(t, policy.Fidelity{}, DriftConfig{IntervalS: 2500, Rel: 0.3, Seed: 5})
		e.SubmitWorkload(smallWorkload(t, 20))
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("drifted runs diverge:\n%v\n%v", a, b)
	}
}

// TestDriftStopsPromptly ensures the drift process does not keep the
// simulation alive long after the last job: the final event time should
// be within one interval of the last finish.
func TestDriftStopsPromptly(t *testing.T) {
	const interval = 1000.0
	e := driftEnv(t, policy.Speed{}, DriftConfig{IntervalS: interval, Rel: 0.1, Seed: 3})
	e.SubmitWorkload(smallWorkload(t, 10))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end := e.Env.Now(); end > res.TotalSimTime+interval {
		t.Fatalf("drift process overran: env ended at %g, last job at %g", end, res.TotalSimTime)
	}
}

// An idle drifting broker holds no timer, so Drain terminates; the steps
// that fall due while it idles are taken, in order, when the next job
// arrives, and a checkpoint records them.
func TestDriftCatchesUpOnIdleBroker(t *testing.T) {
	const interval = 1000.0
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Drift = DriftConfig{IntervalS: interval, Rel: 0.2, Seed: 3}
	b, err := NewBroker(env, fleet, policy.Speed{}, cfg, ManagerRecorder{M: records.NewManager()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := env.QueueLen(); n != 0 {
		t.Fatalf("idle drifting broker scheduled %d timers", n)
	}
	jobs := smallWorkload(t, 2)
	jobs[0].ArrivalTime, jobs[1].ArrivalTime = 0, 10.5*interval
	before := fleet[0].ErrorScore()
	admitWorkload(t, b, jobs[:1])
	if n := env.QueueLen(); n != 0 {
		t.Fatalf("drained drifting broker left %d timers", n)
	}
	if fleet[0].ErrorScore() != before {
		t.Fatal("drift stepped while the only job ran shorter than one interval")
	}
	admitWorkload(t, b, jobs[1:])
	cp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Steps due at 1000, ..., 10000 precede the arrival at 10500; the
	// one due at 11000 follows it only if the job is still running then.
	if cp.DriftSteps < 10 || cp.DriftNext != interval*float64(cp.DriftSteps+1) {
		t.Fatalf("drift position after an idle gap: %d steps, next at %g", cp.DriftSteps, cp.DriftNext)
	}
	if fleet[0].ErrorScore() == before {
		t.Fatal("caught-up drift left the calibration unchanged")
	}
}

// A checkpoint's drift position must match the broker it restores into.
func TestRestoreChecksDriftPosition(t *testing.T) {
	drifting := DefaultConfig()
	drifting.Drift = DriftConfig{IntervalS: 100, Rel: 0.2, Seed: 3}
	restore := func(cfg Config, cp Checkpoint) error {
		env := sim.NewEnvironmentAt(cp.SimNow)
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(env, fleet, policy.Speed{}, cfg, ManagerRecorder{M: records.NewManager()}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range fleet {
			cp.Devices = append(cp.Devices, DeviceCheckpoint{Name: d.Name()})
		}
		return b.Restore(&cp)
	}
	base := Checkpoint{Version: CheckpointVersion, SimNow: 1000, Policy: "speed"}
	cases := []struct {
		name    string
		cfg     Config
		steps   int
		next    float64
		wantErr string
	}{
		{"static", DefaultConfig(), 0, 0, ""},
		{"drift", drifting, 9, 1000, ""},
		{"drift steps on a static broker", DefaultConfig(), 3, 400, "drift is off"},
		{"no drift position on a drifting broker", drifting, 0, 0, "no calibration drift position"},
		{"negative steps", drifting, -1, 1000, "impossible"},
		{"next step beyond one interval", drifting, 9, 1100.5, "impossible"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cp := base
			cp.DriftSteps, cp.DriftNext = c.steps, c.next
			err := restore(c.cfg, cp)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Restore error %v, want %q", err, c.wantErr)
			}
		})
	}
}
