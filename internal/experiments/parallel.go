package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
)

// RunArtifact is one completed simulation task of a task matrix: the
// exact configuration that produced it and the headline results. It is
// the worker pool's result type; Execute flattens it to one manifest
// row (Summary). Per-job records stay with CaseStudy.RunMode,
// so a 100-seed replication never pins 100 record sets in memory.
type RunArtifact struct {
	// ID uniquely names the task, e.g. "mode/speed" or "phi-sweep/speed/0.95".
	ID string
	// Kind groups tasks: "mode", "phi-sweep", "lambda-sweep",
	// "replicate", "rl-deploy".
	Kind string
	// Mode is the allocation strategy simulated.
	Mode string
	// Param is the swept parameter value (sweep kinds only).
	Param float64
	// Workload and Core snapshot the configuration the task ran with;
	// FleetPreset names the device fleet, FleetSeed and RLSeed pin the
	// remaining random streams. TrainSteps and RLDeterministic pin the
	// rlbase policy (training budget and sampled-vs-mean deployment).
	Workload    job.SyntheticConfig
	Core        core.Config
	FleetPreset string
	// TracePath names the replayed workload trace; empty for synthetic
	// workloads.
	TracePath       string
	FleetSeed       int64
	RLSeed          int64
	TrainSteps      int
	RLDeterministic bool
	// Results holds the Table 2 metrics.
	Results core.Results
	// Wall is the host wall-clock duration of the simulation.
	Wall time.Duration
}

// Summary flattens the artifact for manifest export. The rlbase policy
// knobs are emitted only for rlbase rows; they do not affect the
// heuristic modes.
func (a *RunArtifact) Summary() records.RunSummary {
	s := records.RunSummary{
		ID:                a.ID,
		Kind:              a.Kind,
		Mode:              a.Mode,
		Param:             a.Param,
		WorkloadSeed:      a.Workload.Seed,
		FleetSeed:         a.FleetSeed,
		FleetPreset:       a.FleetPreset,
		Phi:               a.Core.Phi,
		Lambda:            a.Core.Lambda,
		Jobs:              a.Workload.N,
		MeanInterarrivalS: a.Workload.MeanInterarrival,
		TracePath:         a.TracePath,
		TsimS:             a.Results.TotalSimTime,
		FidelityMean:      a.Results.FidelityMean,
		FidelityStd:       a.Results.FidelityStd,
		TcommS:            a.Results.TotalCommTime,
		MeanDevicesPerJob: a.Results.MeanDevicesPerJob,
		MeanWaitS:         a.Results.MeanWaitTime,
		WallMS:            float64(a.Wall) / float64(time.Millisecond),
	}
	if a.TracePath != "" {
		// Trace rows report what the trace delivered; the synthetic
		// generator's size and arrival knobs never applied.
		s.Jobs = a.Results.JobsFinished
		s.MeanInterarrivalS = 0
	}
	if a.Mode == "rlbase" {
		steps, seed, det := a.TrainSteps, a.RLSeed, a.RLDeterministic
		s.TrainSteps = &steps
		s.RLSeed = &seed
		s.RLDeterministic = &det
	}
	return s
}

// snapshot returns a config-identical CaseStudy whose state is fully
// private to one task: value fields are copied and the cached trained
// policy (if any) is deep-cloned, because MLP forward passes mutate
// activation caches and must not be shared across workers. Per-task
// determinism then follows from the seeds captured in the snapshot
// (Workload.Seed, FleetSeed, RLSeed) — no random stream is shared.
func (cs *CaseStudy) snapshot() *CaseStudy {
	c := *cs
	if cs.trained != nil {
		c.trained = cs.trained.Clone()
	}
	return &c
}

// ensureTrained trains the PPO policy up front when any requested mode
// needs a model (per the policy registry), so worker snapshots share
// identical (cloned) weights and training cost is paid once rather
// than once per task.
func (cs *CaseStudy) ensureTrained(modes ...string) error {
	for _, m := range modes {
		if policy.NeedsModel(m) {
			_, _, err := cs.TrainRL(nil)
			return err
		}
	}
	return nil
}

// runSpec describes one simulation task before execution.
type runSpec struct {
	id, kind, mode string
	param          float64
	// mutate adapts the task's private snapshot (sweep value, workload
	// seed). Nil means run the snapshot unchanged.
	mutate func(*CaseStudy)
}

// task converts a spec into a pool task that runs on a private snapshot.
func (cs *CaseStudy) task(spec runSpec) runner.Task[RunArtifact] {
	return runner.Task[RunArtifact]{
		Label: spec.id,
		Run: func(context.Context) (RunArtifact, error) {
			snap := cs.snapshot()
			if spec.mutate != nil {
				spec.mutate(snap)
			}
			//lint:allow detlint wall-clock run duration is manifest metadata about the host, not simulation state
			start := time.Now()
			run, err := snap.RunMode(spec.mode)
			if err != nil {
				return RunArtifact{}, err
			}
			return RunArtifact{
				ID:              spec.id,
				Kind:            spec.kind,
				Mode:            spec.mode,
				Param:           spec.param,
				Workload:        snap.Workload,
				Core:            snap.Core,
				FleetPreset:     snap.FleetPreset,
				TracePath:       snap.TracePath,
				FleetSeed:       snap.FleetSeed,
				RLSeed:          snap.RLSeed,
				TrainSteps:      snap.TrainSteps,
				RLDeterministic: snap.RLDeterministic,
				Results:         run.Results,
				Wall:            time.Since(start),
			}, nil
		},
	}
}
