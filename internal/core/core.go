// Package core is the quantum cloud simulation environment — the paper's
// primary contribution (§3, §5). It orchestrates the end-to-end job flow:
// QJobs reach the Broker, which applies an allocation policy
// (Algorithm 1) to partition each large circuit across QDevices, runs
// the partitions in parallel on the callback-driven event kernel,
// simulates blocking inter-device classical communication, computes
// final fidelity with the Eq. 8 penalty, and logs everything to a
// StreamRecorder (a batch run's records.Manager).
//
// The Broker is the only scheduling engine. Batch runs (QCloudSimEnv)
// release a finite workload into it at the jobs' arrival times and run
// the kernel to exhaustion; serve mode admits jobs as a stream delivers
// them. Both therefore produce byte-identical records for the same
// workload.
package core

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// Config carries the model constants of the simulation. Its JSON form
// is the "model" block of a qcloudsim -config file.
type Config struct {
	// M and K are the Eq. 3 workload constants (circuit templates and
	// parameter updates). The §6.1 worked example uses the CLOPS
	// benchmark's M=100, K=10; the case study uses M=K=10 so that the
	// 1,000-job workload completes within the paper's reported horizon.
	M int `json:"m"`
	K int `json:"k"`
	// Phi is the per-link communication fidelity penalty (Eq. 8).
	Phi float64 `json:"phi"`
	// Lambda is the per-qubit classical communication latency (Eq. 9).
	Lambda float64 `json:"lambda"`
	// Backfill relaxes strict FIFO dispatch: when the head job cannot be
	// placed, later queued jobs that fit may start ahead of it (EASY-style
	// skip-ahead). Off by default, matching the paper's FIFO queues.
	Backfill bool `json:"backfill,omitempty"`
	// Drift, when enabled, runs the broker on time-varying hardware, in
	// batch and serve mode alike. The zero value keeps the paper's
	// static calibration.
	Drift DriftConfig `json:"drift,omitzero"`
}

// DriftConfig declaratively configures calibration drift: every
// IntervalS simulated seconds, each device's calibration takes one
// multiplicative random-walk step of relative magnitude Rel and its
// error score is recomputed, so error-aware policies see time-varying
// hardware quality — the dynamic variability the paper lists as absent
// from its model (§7.2). Carried inside Config, it travels wherever the
// config does, so a drifting scenario reproduces identically on every
// executor.
//
// The Broker steps drift only while a job executes, so an idle broker
// keeps no timer and Drain terminates. When a job reaches a broker whose
// ticker has stopped, the steps that fell due strictly before that
// instant are taken first, in order; then the job is recorded and
// dispatched. Same-instant order: a step due at the instant a job
// reaches an idle broker runs after that job. On a busy broker a step
// and an arrival due at the same instant run in the kernel's
// (time, seq) order; in serve mode the arrival is not a kernel event, so
// the step runs first. A checkpoint carries the steps taken and the
// next due time, and Restore replays the steps on the fresh fleet.
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
// finite workload at its arrival times, runs the event core to
// exhaustion and summarizes the records. It bundles the simulation
// environment, cloud, and records — the top-level object users interact
// with.
type QCloudSimEnv struct {
	// Env is the discrete-event kernel.
	Env *sim.Environment
	// Cloud manages devices and scheduling.
	Cloud *QCloud
	// Records collects lifecycle events and metrics.
	Records *records.Manager

	jobs     []*job.QJob // submitted workload, sorted by arrival
	next     int         // index of the next job to release
	arriveFn func()
}

// batchWindowCap sizes the broker's rolling metrics windows in batch
// runs, which report from Records and never read the windows.
const batchWindowCap = 1

// NewQCloudSimEnv assembles a simulation over the given fleet with the
// given allocation policy.
func NewQCloudSimEnv(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg Config) (*QCloudSimEnv, error) {
	rec := records.NewManager()
	b, err := NewBroker(env, fleet, pol, cfg, rec, batchWindowCap)
	if err != nil {
		return nil, err
	}
	e := &QCloudSimEnv{Env: env, Cloud: &QCloud{b}, Records: rec}
	e.arriveFn = e.arrive
	return e, nil
}

// RunBatch is a whole batch run: it assembles the simulation, releases
// jobs at their arrival times and runs them to completion.
func RunBatch(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg Config, jobs []*job.QJob) (*QCloudSimEnv, Results, error) {
	e, err := NewQCloudSimEnv(env, fleet, pol, cfg)
	if err != nil {
		return nil, Results{}, err
	}
	e.SubmitWorkload(jobs)
	res, err := e.Run()
	return e, res, err
}

// SubmitWorkload schedules the release of each job at its arrival time.
// Jobs must be sorted by arrival time. Arrivals form a callback chain —
// each release schedules the next — and jobs sharing an arrival time
// are admitted together, in workload order.
func (e *QCloudSimEnv) SubmitWorkload(jobs []*job.QJob) {
	e.jobs = jobs
	e.next = 0
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
	}
	for _, j := range e.jobs[first:e.next] {
		e.Cloud.Admit(j)
	}
}

// stepDrift takes the drift step due at driftNext on every device.
func (b *Broker) stepDrift() {
	for _, dev := range b.devices {
		if err := dev.Recalibrate(calib.Drift(b.driftRNG, dev.Calibration(), b.cfg.Drift.Rel)); err != nil {
			panic(fmt.Sprintf("core: drift recalibration failed: %v", err))
		}
	}
	b.driftSteps++
	b.driftNext += b.cfg.Drift.IntervalS
}

// driftTick takes a due drift step and re-arms while a job executes; on
// an idle broker it stops, and wakeDrift catches the step up later.
func (b *Broker) driftTick() {
	if b.active == 0 {
		b.driftArmed = false
		return
	}
	b.stepDrift()
	b.env.AfterFunc(b.driftNext-b.env.Now(), b.driftTickFn)
}

// wakeDrift runs before a job reaches a stopped drift ticker: it takes
// the steps due strictly before now, in order, and re-arms the ticker.
func (b *Broker) wakeDrift() {
	now := b.env.Now()
	for b.driftNext < now {
		b.stepDrift()
	}
	b.driftArmed = true
	b.env.AfterFunc(b.driftNext-now, b.driftTickFn)
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

// Run drives the simulation to completion (Broker.Drain) and summarizes
// the results. It returns an error if any submitted job could never be
// placed (e.g. a job exceeding cloud capacity under the active policy).
func (e *QCloudSimEnv) Run() (Results, error) {
	if _, err := e.Cloud.Drain(); err != nil {
		return Results{}, err
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
