package experiments

import (
	"context"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/policy"
	"repro/internal/records"
)

// snapshot returns a config-identical CaseStudy whose state is fully
// private to one task: value fields and the workload a task mutates
// are copied, and the cached trained policy (if any) is deep-cloned,
// because MLP forward passes mutate activation caches and must not be
// shared across workers. Per-task determinism then follows from the
// seeds captured in the snapshot (the synthetic workload seed,
// FleetSeed, RLSeed) — no random stream is shared.
func (cs *CaseStudy) snapshot() *CaseStudy {
	c := *cs
	w := *cs.Workload
	synth := *w.Synthetic
	w.Synthetic = &synth
	c.Workload = &w
	if cs.trained != nil {
		c.trained = cs.trained.Clone()
	}
	return &c
}

// ensureTrained trains the PPO policy up front when any requested mode
// needs a model (policy.NeedsModel), so worker snapshots share
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

// task converts a spec into a pool task that runs on a private
// snapshot and returns its manifest row. Per-job records stay with
// CaseStudy.RunMode, so a 100-seed replication never pins 100 record
// sets in memory.
func (cs *CaseStudy) task(spec runSpec) runner.Task[records.RunSummary] {
	return runner.Task[records.RunSummary]{
		Label: spec.id,
		Run: func(context.Context) (records.RunSummary, error) {
			snap := cs.snapshot()
			if spec.mutate != nil {
				spec.mutate(snap)
			}
			//lint:allow detlint wall-clock run duration is manifest metadata about the host, not simulation state
			start := time.Now()
			run, err := snap.RunMode(spec.mode)
			if err != nil {
				return records.RunSummary{}, err
			}
			res := run.Results
			s := records.RunSummary{
				ID:                spec.id,
				Kind:              spec.kind,
				Mode:              spec.mode,
				Param:             spec.param,
				WorkloadSeed:      snap.Workload.Synthetic.Seed,
				FleetSeed:         snap.FleetSeed,
				FleetPreset:       snap.Preset,
				Phi:               snap.Model.Phi,
				Lambda:            snap.Model.Lambda,
				Jobs:              snap.Workload.Synthetic.N,
				MeanInterarrivalS: snap.Workload.Synthetic.MeanInterarrival,
				TracePath:         snap.tracePath(),
				TsimS:             res.TotalSimTime,
				FidelityMean:      res.FidelityMean,
				FidelityStd:       res.FidelityStd,
				TcommS:            res.TotalCommTime,
				MeanDevicesPerJob: res.MeanDevicesPerJob,
				MeanWaitS:         res.MeanWaitTime,
				WallMS:            float64(time.Since(start)) / float64(time.Millisecond),
			}
			if s.TracePath != "" {
				// Trace rows report what the trace delivered; the
				// synthetic generator's size and arrival knobs never
				// applied.
				s.Jobs = res.JobsFinished
				s.MeanInterarrivalS = 0
			}
			if spec.mode == "rlbase" {
				// The rlbase policy knobs; they do not affect the
				// heuristic modes, whose rows omit them. Copies, so
				// the row does not pin the snapshot.
				steps, seed, det := snap.TrainSteps, snap.RLSeed, snap.RLDeterministic
				s.TrainSteps, s.RLSeed, s.RLDeterministic = &steps, &seed, &det
			}
			return s, nil
		},
	}
}
