// Package experiments regenerates every table and figure in the paper's
// evaluation (§6.6, §7): Table 2 (the four-strategy comparison on 1,000
// large circuits), Figure 5 (PPO training curves), Figure 6 (per-strategy
// fidelity distributions), plus the ablation sweeps for the model
// constants the paper fixes (φ, λ) and the RL deployment mode.
//
// The API is declarative: describe a run as a Spec — a built-in
// scenario (see ScenarioNames) plus task matrices and overrides — and
// hand it to Run with ExecOptions. Execute runs one TaskMatrix on a
// configured CaseStudy and is the only way to run a task matrix;
// ExecuteAll runs several into one manifest, and Run is ExecuteAll
// over the matrices of a Spec. Every task runs on the in-process
// worker pool, and for fixed seeds the manifest is the same whatever
// the pool size (ExecOptions.Workers). Allocation strategies resolve
// by name through policy.New, so every policy.Names entry is a mode.
//
// Beside the manifest path sit the single-run and figure primitives:
// CaseStudy.RunMode (one full simulation, with per-job records),
// CaseStudy.TrainRL (the Fig. 5 training history), Fig5Series and
// Fig6Histograms.
package experiments

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Modes are the four allocation strategies of the case study, in the
// paper's Table 2 order.
var Modes = []string{"speed", "fidelity", "fair", "rlbase"}

// CaseStudy bundles the full experimental configuration: the run it
// simulates, plus what belongs to the experiment around it — the PPO
// training budget and configuration, the deterministic-deployment
// switch and the trained-model cache. The zero value is unusable;
// start from Default().
type CaseStudy struct {
	// Run describes the simulated cloud: the fleet preset and its
	// calibration seed, the workload, the model constants (M, K, φ, λ)
	// and the rlbase deployment seed. Each task sets Policy to its mode,
	// and rlbase deploys the trained network, never RLModelPath.
	// The workload always carries its synthetic block (§7: 1,000 jobs,
	// q∈[130,250], d∈[5,20], s∈[10k,100k]), which also sizes the rlbase
	// training gym. A csv or json source replays the trace at Path
	// instead; the trace must still satisfy the Eq. 1 distributed
	// constraint, and the synthetic seed that replication varies does
	// not change it. The path resolves against the process working
	// directory, like every other path the experiments CLI takes.
	runspec.Run
	// TrainSteps is the PPO training budget for the rlbase mode (the
	// paper trains for 100,000 timesteps).
	TrainSteps int
	// PPO is the trainer configuration.
	PPO rl.PPOConfig
	// RLDeterministic deploys mean actions instead of sampling.
	RLDeterministic bool

	trained *rl.GaussianPolicy
	history []rl.TrainStats
}

// Default returns the paper's case-study configuration with a reduced
// 20k-step training budget (pass 100000 for the paper's full budget;
// the curves plateau around 40–50k steps, §6.6).
func Default() *CaseStudy {
	synth := job.DefaultSyntheticConfig()
	return &CaseStudy{
		Run: runspec.Run{
			Workload:  &runspec.Workload{Source: "synthetic", Synthetic: &synth},
			FleetSeed: 2025,
			RLSeed:    7,
			Model:     core.DefaultConfig(),
		},
		TrainSteps: 20000,
		PPO:        rl.DefaultPPOConfig(),
	}
}

// replay points the workload at the recorded trace at path (a CSV or
// JSON job file, by extension).
func (cs *CaseStudy) replay(path string) {
	cs.Workload.Source, cs.Workload.Path = runspec.FileSource(path), path
}

// tracePath is the replayed trace, or "" for the synthetic workload.
func (cs *CaseStudy) tracePath() string {
	if cs.Workload.Source == "synthetic" {
		return ""
	}
	return cs.Workload.Path
}

// Jobs produces the workload — the synthetic generator, or the trace
// replay — and checks it against the Eq. 1 constraint on the fleet.
func (cs *CaseStudy) Jobs() ([]*job.QJob, error) {
	fleet, err := cs.BuildFleet(sim.NewEnvironment())
	if err != nil {
		return nil, err
	}
	jobs, err := cs.Run.Jobs()
	if err != nil {
		return nil, err
	}
	if err := job.CheckDistributedConstraint(jobs, device.MaxCapacity(fleet), device.TotalCapacity(fleet)); err != nil {
		return nil, err
	}
	return jobs, nil
}

// TrainRL trains (and caches) the PPO policy on the QCloudGymEnv,
// returning the per-iteration statistics — the Fig. 5 series. Subsequent
// calls reuse the cached policy.
func (cs *CaseStudy) TrainRL(onIter func(rl.TrainStats)) (*rl.GaussianPolicy, []rl.TrainStats, error) {
	if cs.trained != nil {
		return cs.trained, cs.history, nil
	}
	fleet, err := cs.BuildFleet(sim.NewEnvironment())
	if err != nil {
		return nil, nil, err
	}
	info := rlsched.InfoFromFleet(fleet)
	gymCfg := rlsched.DefaultGymConfig()
	w := cs.Workload.Synthetic
	gymCfg.MinQubits = w.MinQubits
	gymCfg.MaxQubits = w.MaxQubits
	gymCfg.MinDepth = w.MinDepth
	gymCfg.MaxDepth = w.MaxDepth
	gymCfg.MinShots = w.MinShots
	gymCfg.MaxShots = w.MaxShots
	gymCfg.T2Factor = w.T2Factor
	pol, hist, err := rlsched.Train(info, gymCfg, cs.PPO, cs.TrainSteps, onIter)
	if err != nil {
		return nil, nil, err
	}
	cs.trained = pol
	cs.history = hist
	return pol, hist, nil
}

// ModeRun is one complete simulation of the workload under one strategy.
type ModeRun struct {
	Mode       string
	Results    core.Results
	Fidelities []float64
}

// RunMode simulates the full workload under the named strategy. Any
// policy name is a valid mode; a model-requiring policy (rlbase)
// deploys the case study's trained PPO policy.
func (cs *CaseStudy) RunMode(mode string) (*ModeRun, error) {
	if err := checkMode(mode); err != nil {
		return nil, err
	}
	p := policy.Params{Deterministic: cs.RLDeterministic}
	if policy.NeedsModel(mode) {
		trained, _, err := cs.TrainRL(nil)
		if err != nil {
			return nil, err
		}
		p.Model = rlsched.Deploy(trained)
	}
	run := cs.Run
	run.Policy = mode
	env := sim.NewEnvironment()
	fleet, pol, jobs, err := run.Build(env, p)
	if err != nil {
		return nil, err
	}
	if err := job.CheckDistributedConstraint(jobs, device.MaxCapacity(fleet), device.TotalCapacity(fleet)); err != nil {
		return nil, err
	}
	simEnv, res, err := core.RunBatch(env, fleet, pol, cs.Model, jobs)
	if err != nil {
		return nil, err
	}
	return &ModeRun{
		Mode:       mode,
		Results:    res,
		Fidelities: simEnv.Records.Fidelities(),
	}, nil
}

// Fig5Series converts PPO iteration statistics into the two Fig. 5
// series: mean episode reward and entropy loss versus timesteps.
func Fig5Series(hist []rl.TrainStats) (reward, entropyLoss *stats.Series) {
	reward = &stats.Series{Name: "mean_episode_reward"}
	entropyLoss = &stats.Series{Name: "entropy_loss"}
	for _, h := range hist {
		reward.Append(float64(h.Timesteps), h.MeanEpisodeReward)
		entropyLoss.Append(float64(h.Timesteps), h.EntropyLoss)
	}
	return reward, entropyLoss
}

// Fig6Histograms bins each run's fidelities over a common range, like
// the paper's Figure 6 panels. The range spans all runs' observed
// fidelities with a small margin.
func Fig6Histograms(runs map[string]*ModeRun, bins int) map[string]*stats.Histogram {
	lo, hi := 1.0, 0.0
	for _, r := range runs {
		for _, f := range r.Fidelities {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	if hi <= lo {
		lo, hi = 0, 1
	}
	margin := (hi - lo) * 0.05
	lo -= margin
	hi += margin
	out := make(map[string]*stats.Histogram, len(runs))
	for mode, r := range runs {
		out[mode] = stats.NewHistogram(r.Fidelities, lo, hi, bins)
	}
	return out
}
