// Package core is the quantum cloud simulation environment — the paper's
// primary contribution (§3, §5). It orchestrates the end-to-end job flow:
// QJobs reach the Broker, which applies an allocation policy
// (Algorithm 1) to partition each large circuit across QDevices, runs
// the partitions in parallel on the callback-driven event kernel,
// simulates blocking inter-device classical communication, computes
// final fidelity with the Eq. 8 penalty, and logs everything to the
// JobRecordsManager.
//
// The Broker is the only scheduling engine. Batch runs (QCloudSimEnv)
// release a finite workload into it at the jobs' arrival times and run
// the kernel to exhaustion; serve mode admits jobs as a stream delivers
// them. Both therefore produce byte-identical records for the same
// workload.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/calib"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// Config carries the model constants of the simulation.
type Config struct {
	// M and K are the Eq. 3 workload constants (circuit templates and
	// parameter updates). The §6.1 worked example uses the CLOPS
	// benchmark's M=100, K=10; the case study uses M=K=10 so that the
	// 1,000-job workload completes within the paper's reported horizon.
	M, K int
	// Phi is the per-link communication fidelity penalty (Eq. 8).
	Phi float64
	// Lambda is the per-qubit classical communication latency (Eq. 9).
	Lambda float64
	// Backfill relaxes strict FIFO dispatch: when the head job cannot be
	// placed, later queued jobs that fit may start ahead of it (EASY-style
	// skip-ahead). Off by default, matching the paper's FIFO queues.
	Backfill bool
	// Drift, when enabled, runs the workload on time-varying hardware:
	// drivers that honor the config (experiments.RunMode) start the
	// EnableCalibrationDrift ticker right after workload submission.
	// The zero value keeps the paper's static calibration.
	Drift DriftConfig
}

// DriftConfig declaratively configures calibration drift (see
// EnableCalibrationDrift). Carried inside Config, it travels wherever
// the config does — including into shard worker processes — so a
// drifting scenario reproduces identically on every executor.
type DriftConfig struct {
	// IntervalS is the simulated seconds between recalibration steps;
	// 0 disables drift.
	IntervalS float64 `json:"interval_s,omitempty"`
	// Rel is the relative magnitude of each multiplicative
	// random-walk step.
	Rel float64 `json:"rel,omitempty"`
	// Seed drives the drift random walk.
	Seed int64 `json:"seed,omitempty"`
}

// Enabled reports whether drift is configured.
func (d DriftConfig) Enabled() bool { return d.IntervalS > 0 }

// DefaultConfig returns the case-study configuration.
func DefaultConfig() Config {
	return Config{M: 10, K: 10, Phi: metrics.DefaultPhi, Lambda: metrics.DefaultLambda}
}

func (c Config) validate() error {
	switch {
	case c.M <= 0 || c.K <= 0:
		return fmt.Errorf("core: M=%d K=%d must be positive", c.M, c.K)
	case c.Phi <= 0 || c.Phi > 1:
		return fmt.Errorf("core: Phi=%g outside (0,1]", c.Phi)
	case c.Lambda < 0:
		return fmt.Errorf("core: Lambda=%g negative", c.Lambda)
	case c.Drift.IntervalS < 0:
		return fmt.Errorf("core: drift interval %g negative", c.Drift.IntervalS)
	case c.Drift.Enabled() && c.Drift.Rel < 0:
		return fmt.Errorf("core: drift magnitude %g negative", c.Drift.Rel)
	}
	return nil
}

// QCloud is the batch view of the cloud: the Broker that owns the
// device fleet, applies the allocation policy, and keeps the pending-job
// queue. It corresponds to the paper's QCloud plus Broker; the Broker's
// device-selection step is delegated to the pluggable Policy (users
// implement policy.Policy for custom brokers).
type QCloud struct{ *Broker }

// PendingJobs returns the number of jobs waiting for allocation.
func (c *QCloud) PendingJobs() int { return c.QueueDepth() }

// QCloudSimEnv is the batch front end over a Broker: it releases a
// finite workload at its arrival times, optionally drifts calibration,
// runs the event core to exhaustion and summarizes the records. It
// bundles the simulation environment, cloud, and records — the
// top-level object users interact with.
type QCloudSimEnv struct {
	// Env is the discrete-event kernel.
	Env *sim.Environment
	// Cloud manages devices and scheduling.
	Cloud *QCloud
	// Records collects lifecycle events and metrics.
	Records *records.Manager

	jobs          []*job.QJob // submitted workload, sorted by arrival
	next          int         // index of the next job to release
	submitted     bool
	generatorDone bool
	arriveFn      func()

	driftInterval, driftRel float64
	driftRNG                *rand.Rand
	tickFn                  func()
}

// batchWindowCap sizes the broker's rolling metrics windows in batch
// runs, which report from Records and never read the windows.
const batchWindowCap = 1

// NewQCloudSimEnv assembles a simulation over the given fleet with the
// given allocation policy.
func NewQCloudSimEnv(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg Config) (*QCloudSimEnv, error) {
	rec := records.NewManager()
	b, err := newBroker(env, fleet, pol, cfg, ManagerRecorder{M: rec}, batchWindowCap)
	if err != nil {
		return nil, err
	}
	e := &QCloudSimEnv{Env: env, Cloud: &QCloud{b}, Records: rec}
	e.arriveFn = e.arrive
	e.tickFn = e.tick
	return e, nil
}

// SubmitWorkload schedules the release of each job at its arrival time.
// Jobs must be sorted by arrival time. Arrivals form a callback chain —
// each release schedules the next — and jobs sharing an arrival time
// are admitted together, in workload order.
func (e *QCloudSimEnv) SubmitWorkload(jobs []*job.QJob) {
	e.jobs = jobs
	e.next = 0
	e.submitted = true
	e.Env.AfterFunc(0, e.arriveFn)
}

// arrive admits every job due now. The next release is scheduled first,
// so it runs ahead of any timer of the admitted jobs that falls due at
// the same instant.
func (e *QCloudSimEnv) arrive() {
	now := e.Env.Now()
	first := e.next
	for e.next < len(e.jobs) && !(e.jobs[e.next].ArrivalTime > now) {
		e.next++
	}
	if e.next < len(e.jobs) {
		e.Env.AfterFunc(e.jobs[e.next].ArrivalTime-now, e.arriveFn)
	} else {
		e.generatorDone = true
	}
	for _, j := range e.jobs[first:e.next] {
		e.Cloud.Admit(j)
	}
}

// EnableCalibrationDrift starts a recalibration ticker: every interval
// simulated seconds, each device's calibration takes one multiplicative
// random-walk step of relative magnitude rel and its error score is
// recomputed, so error-aware policies see *time-varying* hardware
// quality — the dynamic variability the paper lists as absent from its
// model (§7.2). The ticker stops once the workload completes. It must
// be called after SubmitWorkload so it can observe completion.
func (e *QCloudSimEnv) EnableCalibrationDrift(interval, rel float64, seed int64) error {
	if interval <= 0 {
		return fmt.Errorf("core: drift interval %g", interval)
	}
	if rel < 0 {
		return fmt.Errorf("core: drift magnitude %g", rel)
	}
	if !e.submitted {
		return fmt.Errorf("core: EnableCalibrationDrift requires a submitted workload")
	}
	e.driftInterval, e.driftRel = interval, rel
	e.driftRNG = rand.New(rand.NewSource(seed))
	// Start on a zero-delay hop, like the arrival chain, so the first
	// tick is scheduled after the release that follows any arrival at
	// the start time: an arrival and a tick due at the same instant then
	// run arrival first, as they do for every later tick.
	e.Env.AfterFunc(0, func() { e.Env.AfterFunc(e.driftInterval, e.tickFn) })
	return nil
}

// tick takes one drift step, or stops the ticker once every job has
// been released and the broker is idle.
func (e *QCloudSimEnv) tick() {
	if e.generatorDone && e.Cloud.Quiescent() {
		return
	}
	for _, d := range e.Cloud.Devices() {
		if err := d.Recalibrate(calib.Drift(e.driftRNG, d.Calibration(), e.driftRel)); err != nil {
			panic(fmt.Sprintf("core: drift recalibration failed: %v", err))
		}
	}
	e.Env.AfterFunc(e.driftInterval, e.tickFn)
}

// Results summarizes a completed simulation in the paper's Table 2
// metrics.
type Results struct {
	// Policy is the allocation mode that produced these results.
	Policy string
	// TotalSimTime is T_sim: the simulated time at which the last job
	// completed.
	TotalSimTime float64
	// FidelityMean and FidelityStd are μF and σF over finished jobs.
	FidelityMean, FidelityStd float64
	// TotalCommTime is T_comm summed over all jobs.
	TotalCommTime float64
	// JobsFinished counts completed jobs.
	JobsFinished int
	// MeanWaitTime, MeanTurnaround and MeanDevicesPerJob are secondary
	// diagnostics used in the discussion.
	MeanWaitTime, MeanTurnaround, MeanDevicesPerJob float64
}

// Run drives the simulation to completion and summarizes the results. It
// returns an error if any submitted job could never be placed (e.g. a
// job exceeding cloud capacity under the active policy).
func (e *QCloudSimEnv) Run() (Results, error) {
	e.Env.Run()
	if n := e.Records.NumPending(); n > 0 || e.Cloud.PendingJobs() > 0 {
		return Results{}, fmt.Errorf("core: %d jobs unfinished (policy %q cannot place them)",
			n, e.Cloud.Policy().Name())
	}
	mean, std := e.Records.FidelityMeanStd()
	return Results{
		Policy:            e.Cloud.Policy().Name(),
		TotalSimTime:      e.Records.Makespan(),
		FidelityMean:      mean,
		FidelityStd:       std,
		TotalCommTime:     e.Records.TotalCommTime(),
		JobsFinished:      e.Records.NumFinished(),
		MeanWaitTime:      e.Records.MeanWaitTime(),
		MeanTurnaround:    e.Records.MeanTurnaround(),
		MeanDevicesPerJob: e.Records.MeanDevicesPerJob(),
	}, nil
}

// String formats results as a Table 2 row.
func (r Results) String() string {
	return fmt.Sprintf("%-8s Tsim=%12.2f  muF=%.5f +- %.5f  Tcomm=%10.2f  k=%.2f  wait=%.1f",
		r.Policy, r.TotalSimTime, r.FidelityMean, r.FidelityStd, r.TotalCommTime,
		r.MeanDevicesPerJob, r.MeanWaitTime)
}
