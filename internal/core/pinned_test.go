package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// pinnedDigest runs one batch simulation and returns the SHA-256 of its
// per-job records export. drift, when enabled, is set on cfg, so the
// broker drifts the fleet's calibration.
func pinnedDigest(t *testing.T, jobs []*job.QJob, pol policy.Policy, cfg Config, drift DriftConfig) string {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Drift = drift
	e, err := NewQCloudSimEnv(env, fleet, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitWorkload(jobs)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := e.Records.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// tiedArrivals snaps a workload's arrival times onto multiples of step,
// so arrivals coincide with each other and with drift ticks of the same
// interval.
func tiedArrivals(jobs []*job.QJob, step float64) []*job.QJob {
	for _, j := range jobs {
		j.ArrivalTime = math.Round(j.ArrivalTime/step) * step
	}
	return jobs
}

// busyWorkload compresses the synthetic workload's arrivals and widens
// its size range so the fleet saturates, jobs queue, and small jobs can
// fit beside a blocked head: dispatch order, backfill skip-ahead and
// release-driven re-dispatch all shape the records.
func busyWorkload(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	cfg.MeanInterarrival = 2
	cfg.MinQubits = 20
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// idleWorkload spaces arrivals so far apart that the fleet drains and
// the broker idles before most of them.
func idleWorkload(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	cfg.MeanInterarrival = 3000
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// The batch simulator's per-job records are pinned by digest. They are
// the reference every engine change must reproduce byte for byte — and
// the reference the broker is held to through the batch front end.
// Update a digest only for an intended change of simulated results.
func TestBatchRecordsPinned(t *testing.T) {
	untrained := rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	backfill := DefaultConfig()
	backfill.Backfill = true
	cases := []struct {
		name  string
		jobs  func(t *testing.T) []*job.QJob
		pol   func() policy.Policy
		cfg   Config
		drift DriftConfig
		want  string
	}{
		{"speed", func(t *testing.T) []*job.QJob { return smallWorkload(t, 60) },
			func() policy.Policy { return policy.Speed{} }, DefaultConfig(), DriftConfig{},
			"56d1799c1f1c64fe55fbea3103bb2945c2be20b1ad08999d1045f1be4b68a7a9"},
		{"fidelity", func(t *testing.T) []*job.QJob { return smallWorkload(t, 60) },
			func() policy.Policy { return policy.Fidelity{} }, DefaultConfig(), DriftConfig{},
			"4060a65209a2347f37cd3edc517d1aee9e91b2a97fc555c0ea987a39db2d9b3a"},
		{"fair", func(t *testing.T) []*job.QJob { return smallWorkload(t, 60) },
			func() policy.Policy { return policy.Fair{} }, DefaultConfig(), DriftConfig{},
			"127e694386fcd414e313f542695ab87f6a14da99bbbae5d84e65761c2f0a3385"},
		{"rlbase", func(t *testing.T) []*job.QJob { return smallWorkload(t, 40) },
			func() policy.Policy { return rlsched.NewRLPolicy(untrained, 11) }, DefaultConfig(), DriftConfig{},
			"843afe5a89107612479621be29ac96535430471d302adfb2407c6ecd03b7e527"},
		{"fidelity-busy", func(t *testing.T) []*job.QJob { return busyWorkload(t, 60) },
			func() policy.Policy { return policy.Fidelity{} }, DefaultConfig(), DriftConfig{},
			"533cc30a2deffcb493df5e6d2633f71ed5b57fbe3df639754426a8fb9a395dcd"},
		{"fidelity-backfill", func(t *testing.T) []*job.QJob { return busyWorkload(t, 60) },
			func() policy.Policy { return policy.Fidelity{} }, backfill, DriftConfig{},
			"82bfcb3a4527becf92c94e749ab106b4936a9ca2d772325e10f9c9b4dd818870"},
		// Skip-ahead over a drifting fleet: the error ranking changes
		// between dispatch passes (22 times over its 411 drift steps).
		{"fidelity-backfill-drift", func(t *testing.T) []*job.QJob { return busyWorkload(t, 60) },
			func() policy.Policy { return policy.Fidelity{} }, backfill, DriftConfig{IntervalS: 50, Rel: 0.5, Seed: 13},
			"c87257cb73f7f23fd7b8997891ad867fc4ab6f8fdeb30f2d779bd3ad75671488"},
		{"speed-drift", func(t *testing.T) []*job.QJob { return smallWorkload(t, 40) },
			func() policy.Policy { return policy.Speed{} }, DefaultConfig(), DriftConfig{IntervalS: 1800, Rel: 0.2, Seed: 7},
			"ddee2dc209df07d72ce0ec7d28eccdc3d8d2ff366885f81a84507d2dbdce8c08"},
		{"fidelity-drift", func(t *testing.T) []*job.QJob { return smallWorkload(t, 40) },
			func() policy.Policy { return policy.Fidelity{} }, DefaultConfig(), DriftConfig{IntervalS: 2000, Rel: 0.5, Seed: 11},
			"8b2b16ca3552c8ff7831923132e17a8b76e81e1f3a9c08f04ff200a423fdf9a7"},
		{"fidelity-drift-ties", func(t *testing.T) []*job.QJob { return tiedArrivals(smallWorkload(t, 60), 120) },
			func() policy.Policy { return policy.Fidelity{} }, DefaultConfig(), DriftConfig{IntervalS: 120, Rel: 0.3, Seed: 5},
			"b1ce97d39fa502e8da47e7e22adabb69e74066b7595d22a77c93ff60fd6288f1"},
		{"speed-drift-ties-busy", func(t *testing.T) []*job.QJob { return tiedArrivals(busyWorkload(t, 60), 10) },
			func() policy.Policy { return policy.Speed{} }, DefaultConfig(), DriftConfig{IntervalS: 10, Rel: 0.3, Seed: 5},
			"32170f1aa87d2c54dcfabdd5d5a99dc26d447c97530a7364e717710ca165e3a9"},
		// Arrivals on the drift grid reach an idle broker: the steps it
		// missed are caught up before the job, the one due at the arrival
		// instant after it.
		{"fidelity-drift-ties-idle", func(t *testing.T) []*job.QJob { return tiedArrivals(idleWorkload(t, 40), 500) },
			func() policy.Policy { return policy.Fidelity{} }, DefaultConfig(), DriftConfig{IntervalS: 500, Rel: 0.4, Seed: 9},
			"470ae98d8870885d2190b3bc193c55947c39436769fab92761dc9a7cdd1a0e05"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := pinnedDigest(t, c.jobs(t), c.pol(), c.cfg, c.drift); got != c.want {
				t.Fatalf("records digest %s, pinned %s", got, c.want)
			}
		})
	}
}
