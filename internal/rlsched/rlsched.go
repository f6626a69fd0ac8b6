// Package rlsched implements the paper's reinforcement-learning
// scheduling mode (§4.1, §6.6): the QCloudGymEnv single-step MDP over
// job/device features, PPO training against it, and the deployment
// adapter that turns a trained Gaussian policy into a policy.Policy
// usable by the broker.
package rlsched

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/rl"
)

// State-vector layout (§4.1): [q/QMax, (level_i/LevelNorm, E_i·ErrScale,
// CLOPS_i/CLOPSNorm) × NumDevices], padded with zeros when fewer devices
// exist. Dimensionality 1+3k = 16 for k=5.
const (
	// NumDevices is the fixed device-slot count of the state encoding.
	NumDevices = 5
	// StateDim is the observation dimensionality (16 for 5 devices).
	StateDim = 1 + 3*NumDevices
	// QMax normalizes the job qubit count. The paper's §4.1 text says 50
	// but its case-study jobs span 130–250 qubits; we use the workload
	// maximum so the feature stays in [0,1].
	QMax = 250.0
	// LevelNorm normalizes the container level (paper: C_i/150).
	LevelNorm = 150.0
	// CLOPSNorm normalizes device throughput (paper: K_i/10^6).
	CLOPSNorm = 1e6
	// ErrScale rescales the Eq. 2 error score (raw values are ~1e-2;
	// scaling to ~0.5 keeps the feature comparable to the others).
	ErrScale = 50.0
)

// Observation builds the §4.1 state vector for a job of q qubits over
// the given fleet snapshot. Devices beyond NumDevices are ignored;
// missing slots are zero-padded.
func Observation(q int, devices []policy.DeviceState) []float64 {
	return ObservationInto(q, devices, make([]float64, StateDim))
}

// ObservationInto is the allocation-free Observation: the state vector
// is written into out (length StateDim), which is zeroed first and
// returned. It is the per-decision fast path of the deployed RL policy.
//
//repro:noalloc
func ObservationInto(q int, devices []policy.DeviceState, out []float64) []float64 {
	if len(out) != StateDim {
		panic(fmt.Sprintf("rlsched: ObservationInto out dim %d, want %d", len(out), StateDim))
	}
	for i := range out {
		out[i] = 0
	}
	out[0] = float64(q) / QMax
	for i := 0; i < NumDevices && i < len(devices); i++ {
		d := devices[i]
		out[1+3*i] = float64(d.Free) / LevelNorm
		out[2+3*i] = d.ErrorScore * ErrScale
		out[3+3*i] = d.CLOPS / CLOPSNorm
	}
	return out
}

// DeviceInfo carries the per-device data the reward model needs beyond
// the scheduler-visible state: mean calibration error rates.
type DeviceInfo struct {
	State policy.DeviceState
	// Eps1Q, Eps2Q, EpsRO are the device's mean single-qubit, two-qubit,
	// and readout error rates.
	Eps1Q, Eps2Q, EpsRO float64
}

// InfoFromFleet extracts DeviceInfo from simulated devices.
func InfoFromFleet(fleet []*device.Device) []DeviceInfo {
	out := make([]DeviceInfo, len(fleet))
	for i, d := range fleet {
		eps1Q, eps2Q, epsRO := d.MeanErrors()
		out[i] = DeviceInfo{
			State: policy.DeviceState{
				Index:      i,
				Name:       d.Name(),
				Free:       d.NumQubits(),
				Capacity:   d.NumQubits(),
				ErrorScore: d.ErrorScore(),
				CLOPS:      d.CLOPS(),
			},
			Eps1Q: eps1Q,
			Eps2Q: eps2Q,
			EpsRO: epsRO,
		}
	}
	return out
}

// GymConfig parameterizes the training environment's job distribution.
type GymConfig struct {
	// MinQubits..MaxShots bound the randomized training jobs, matching
	// the §7 workload by default.
	MinQubits, MaxQubits int
	MinDepth, MaxDepth   int
	MinShots, MaxShots   int
	// T2Factor sets two-qubit gate count as a fraction of qubits·depth.
	T2Factor float64
	// RandomizeLevels, when set, draws random device occupancy each
	// episode instead of presenting an idle fleet; this exposes the
	// agent to the loaded states it will see at deployment.
	RandomizeLevels bool
	// CommAwareReward applies the Eq. 8 penalty φ^(k−1) to the reward —
	// the "communication-aware reward shaping" the paper leaves as
	// future work (§6.6). The default (off) matches the paper's §4.1
	// reward, which ignores communication cost.
	CommAwareReward bool
	// Phi is the penalty used when CommAwareReward is set (default
	// metrics.DefaultPhi via DefaultGymConfig).
	Phi float64
	// Seed drives job sampling.
	Seed int64
}

// DefaultGymConfig mirrors the case-study workload ranges.
func DefaultGymConfig() GymConfig {
	return GymConfig{
		MinQubits: 130, MaxQubits: 250,
		MinDepth: 5, MaxDepth: 20,
		MinShots: 10000, MaxShots: 100000,
		T2Factor: 0.25,
		Phi:      metrics.DefaultPhi,
		Seed:     1,
	}
}

// GymEnv is the QCloudGymEnv: a single-step episodic environment where
// the observation encodes one job plus the fleet, the continuous action
// is the 5-dimensional allocation-weight vector, and the reward is the
// allocation's mean device fidelity (no communication penalty — the
// paper's §4.1 reward, which is why the learned policy under-weights
// communication cost at deployment).
type GymEnv struct {
	cfg     GymConfig
	devices []DeviceInfo
	rng     *rand.Rand

	cur   *job.QJob
	free  []int
	stats GymStats
}

// GymStats tracks environment usage for diagnostics.
type GymStats struct {
	Episodes   int
	RewardSum  float64
	LastReward float64
}

// NewGymEnv builds a training environment over the given fleet info.
func NewGymEnv(devices []DeviceInfo, cfg GymConfig) (*GymEnv, error) {
	if len(devices) == 0 || len(devices) > NumDevices {
		return nil, fmt.Errorf("rlsched: %d devices, want 1..%d", len(devices), NumDevices)
	}
	if cfg.MinQubits <= 0 || cfg.MaxQubits < cfg.MinQubits {
		return nil, fmt.Errorf("rlsched: qubit range [%d,%d]", cfg.MinQubits, cfg.MaxQubits)
	}
	total := 0
	for _, d := range devices {
		total += d.State.Capacity
	}
	if cfg.MaxQubits > total {
		return nil, fmt.Errorf("rlsched: max job %d exceeds fleet capacity %d", cfg.MaxQubits, total)
	}
	if cfg.CommAwareReward && (cfg.Phi <= 0 || cfg.Phi > 1) {
		return nil, fmt.Errorf("rlsched: comm-aware reward needs Phi in (0,1], got %g", cfg.Phi)
	}
	return &GymEnv{
		cfg:     cfg,
		devices: devices,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// ObservationSpace implements rl.Env.
func (e *GymEnv) ObservationSpace() rl.Box { return rl.NewBox(0, 10, StateDim) }

// ActionSpace implements rl.Env: 5 allocation weights in [0,1].
func (e *GymEnv) ActionSpace() rl.Box { return rl.NewBox(0, 1, NumDevices) }

// Stats returns usage counters.
func (e *GymEnv) Stats() GymStats { return e.stats }

// Reset implements rl.Env: draw a fresh job (and fleet occupancy, if
// randomizing) and return the state vector.
func (e *GymEnv) Reset() []float64 {
	uniform := func(lo, hi int) int { return lo + e.rng.Intn(hi-lo+1) }
	q := uniform(e.cfg.MinQubits, e.cfg.MaxQubits)
	d := uniform(e.cfg.MinDepth, e.cfg.MaxDepth)
	e.cur = &job.QJob{
		ID:            fmt.Sprintf("train-%d", e.stats.Episodes),
		NumQubits:     q,
		Depth:         d,
		Shots:         uniform(e.cfg.MinShots, e.cfg.MaxShots),
		TwoQubitGates: int(float64(q*d)*e.cfg.T2Factor + 0.5),
	}
	e.free = make([]int, len(e.devices))
	states := make([]policy.DeviceState, len(e.devices))
	for i, di := range e.devices {
		free := di.State.Capacity
		if e.cfg.RandomizeLevels {
			// Keep the job placeable: never drop below q in total; draw
			// each level uniformly then repair if needed.
			free = e.rng.Intn(di.State.Capacity + 1)
		}
		e.free[i] = free
		states[i] = di.State
		states[i].Free = free
	}
	if e.cfg.RandomizeLevels {
		e.repairFeasibility(q)
		for i := range states {
			states[i].Free = e.free[i]
		}
	}
	return Observation(q, states)
}

// repairFeasibility tops up random occupancy until Σfree ≥ q.
func (e *GymEnv) repairFeasibility(q int) {
	total := 0
	for _, f := range e.free {
		total += f
	}
	for i := 0; total < q && i < len(e.free); i++ {
		add := e.devices[i].State.Capacity - e.free[i]
		e.free[i] = e.devices[i].State.Capacity
		total += add
	}
}

// Step implements rl.Env: apply the weight vector, derive the integer
// allocation (normalize, scale by q, round under capacity constraints —
// the paper's â_i = a_i/(Σa_j+ε)·q with rounding adjustment), and return
// the fidelity reward. Episodes are single-step.
func (e *GymEnv) Step(action []float64) ([]float64, float64, bool) {
	if e.cur == nil {
		panic("rlsched: Step before Reset")
	}
	shares := SharesFromWeights(e.cur.NumQubits, action, e.free)
	reward := 0.0
	if shares != nil {
		reward = AllocationReward(e.cur, e.devices, shares)
		if e.cfg.CommAwareReward && reward > 0 {
			k := 0
			for _, s := range shares {
				if s > 0 {
					k++
				}
			}
			reward *= metrics.CommunicationPenalty(e.cfg.Phi, k)
		}
	}
	e.stats.Episodes++
	e.stats.RewardSum += reward
	e.stats.LastReward = reward
	e.cur = nil
	return nil, reward, true
}

// SharesFromWeights converts raw action weights into an integer
// allocation over the devices: weights are clipped to [0,1], offset by a
// small ε so an all-zero action still allocates, and apportioned
// proportionally under the free-capacity caps. Returns nil if the job
// cannot fit.
func SharesFromWeights(q int, weights []float64, free []int) []int {
	return SharesFromWeightsInto(q, weights, free, make([]float64, len(free)))
}

// SharesFromWeightsInto is SharesFromWeights with a caller-provided
// scratch buffer for the clipped weights (length len(free), fully
// overwritten) — the form the deployed policy's per-decision fast path
// uses to avoid allocating on every dispatch attempt.
func SharesFromWeightsInto(q int, weights []float64, free []int, wbuf []float64) []int {
	if len(wbuf) != len(free) {
		panic(fmt.Sprintf("rlsched: weight scratch len %d, want %d", len(wbuf), len(free)))
	}
	for i := range wbuf {
		v := 0.0
		if i < len(weights) {
			v = weights[i]
		}
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		wbuf[i] = v + 1e-6
	}
	return policy.Apportion(q, wbuf, free)
}

// AllocationReward computes the §4.1 reward: the allocation-weighted
// mean of per-partition fidelities, without the Eq. 8 communication
// penalty.
func AllocationReward(j *job.QJob, devices []DeviceInfo, shares []int) float64 {
	totalQ := 0
	weighted := 0.0
	for i, s := range shares {
		if s <= 0 {
			continue
		}
		t2i := int(float64(j.TwoQubitGates)*float64(s)/float64(j.NumQubits) + 0.5)
		f := metrics.PartitionFidelity(
			devices[i].Eps1Q, devices[i].Eps2Q, devices[i].EpsRO,
			j.Depth, s, t2i,
		)
		weighted += f * float64(s)
		totalQ += s
	}
	if totalQ == 0 {
		return 0
	}
	return weighted / float64(totalQ)
}

// RLPolicy adapts a trained Gaussian policy to the broker's
// policy.Policy interface — the paper's rlbase allocation mode. By
// default actions are sampled from the trained distribution (matching
// the stochastic allocation behaviour the paper reports for the RL
// mode); set Deterministic for mean actions.
type RLPolicy struct {
	Trained *rl.GaussianPolicy
	// Deterministic switches deployment from sampling to mean actions.
	Deterministic bool

	rng *rand.Rand
	// seed and sampled reconstruct the RNG position for broker
	// checkpoints: ActInto consumes exactly ActDim NormFloat64 draws
	// per sampled decision regardless of the observation, so {seed,
	// sampled} fully determines the stream position.
	seed    int64
	sampled int
	// Per-decision scratch: the observation, action, clipped-weight and
	// free-capacity buffers are preallocated so Allocate's inference
	// and apportionment-input path never allocates; a placed decision
	// allocates only Apportion's shares and the returned allocations. A
	// policy drives one simulation on one goroutine; the broker never
	// shares it.
	obsBuf, actBuf, wBuf []float64
	freeBuf              []int
}

// NewRLPolicy wraps a trained policy for deployment. The seed drives
// action sampling (ignored in deterministic mode).
func NewRLPolicy(trained *rl.GaussianPolicy, seed int64) *RLPolicy {
	return &RLPolicy{
		Trained: trained,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		obsBuf:  make([]float64, StateDim),
		actBuf:  make([]float64, trained.ActDim()),
		wBuf:    make([]float64, NumDevices),
		freeBuf: make([]int, NumDevices),
	}
}

// Deploy wraps a trained Gaussian policy as the model policy.New builds
// "rlbase" from: Params.Seed seeds NewRLPolicy and Params.Deterministic
// sets its deployment mode. A nil network gives a nil model, which New
// refuses.
func Deploy(trained *rl.GaussianPolicy) policy.Model {
	if trained == nil {
		return nil
	}
	return func(seed int64, deterministic bool) policy.Policy {
		rp := NewRLPolicy(trained, seed)
		rp.Deterministic = deterministic
		return rp
	}
}

// Name implements policy.Policy.
func (p *RLPolicy) Name() string { return "rlbase" }

// Allocate implements policy.Policy.
func (p *RLPolicy) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	totalFree := 0
	for _, d := range devices {
		totalFree += d.Free
	}
	if totalFree < j.NumQubits {
		return nil
	}
	obs := ObservationInto(j.NumQubits, devices, p.obsBuf)
	action := p.actBuf
	if p.Deterministic {
		p.Trained.MeanActionInto(obs, action)
	} else {
		// ActInto runs the actor alone and draws the identical RNG
		// stream as Sample, so sampled deployments stay bit-identical
		// to the training-time sampler.
		p.Trained.ActInto(p.rng, obs, action)
		p.sampled++
	}
	if cap(p.freeBuf) < len(devices) {
		p.freeBuf = make([]int, len(devices))
		p.wBuf = make([]float64, len(devices))
	}
	free := p.freeBuf[:len(devices)]
	for i, d := range devices {
		free[i] = d.Free
	}
	return policy.FromShares(SharesFromWeightsInto(j.NumQubits, action, free, p.wBuf[:len(devices)]))
}

// rlCheckpoint is the serialized RNG position of a sampling deployment.
type rlCheckpoint struct {
	Seed    int64 `json:"seed"`
	Sampled int   `json:"sampled"`
}

// CheckpointState implements the broker's PolicyCheckpointer: the
// sampling RNG position is the policy's only resumable state (weights
// are immutable at deployment and travel via the model file).
func (p *RLPolicy) CheckpointState() ([]byte, error) {
	return json.Marshal(rlCheckpoint{Seed: p.seed, Sampled: p.sampled})
}

// RestoreState reinstates a checkpointed RNG position by replaying the
// recorded number of sampled decisions — valid because each ActInto
// consumes exactly ActDim normal draws, independent of the observation.
func (p *RLPolicy) RestoreState(data []byte) error {
	var c rlCheckpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("rlsched: decoding policy checkpoint: %w", err)
	}
	if c.Sampled < 0 {
		return fmt.Errorf("rlsched: negative sample count %d", c.Sampled)
	}
	p.seed = c.Seed
	p.rng = rand.New(rand.NewSource(c.Seed))
	for i := 0; i < c.Sampled*p.Trained.ActDim(); i++ {
		p.rng.NormFloat64()
	}
	p.sampled = c.Sampled
	return nil
}

// Train runs PPO on the QCloudGymEnv for the given number of timesteps
// and returns the trained policy plus per-iteration statistics (the
// paper's Fig. 5 series). timesteps must be at least 1.
func Train(devices []DeviceInfo, gymCfg GymConfig, ppoCfg rl.PPOConfig, timesteps int, onIter func(rl.TrainStats)) (*rl.GaussianPolicy, []rl.TrainStats, error) {
	if timesteps < 1 {
		return nil, nil, fmt.Errorf("rlsched: timesteps must be >= 1, have %d", timesteps)
	}
	env, err := NewGymEnv(devices, gymCfg)
	if err != nil {
		return nil, nil, err
	}
	agent := rl.NewPPO(env, ppoCfg)
	history := agent.Learn(env, timesteps, onIter)
	return agent.Policy, history, nil
}

// SavePolicy serializes a trained policy to path as JSON.
func SavePolicy(path string, pol *rl.GaussianPolicy) error {
	data, err := json.MarshalIndent(pol, "", " ")
	if err != nil {
		return fmt.Errorf("rlsched: encoding policy: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("rlsched: writing policy: %w", err)
	}
	return nil
}

// LoadPolicy reads a policy saved by SavePolicy.
func LoadPolicy(path string) (*rl.GaussianPolicy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rlsched: reading policy: %w", err)
	}
	var pol rl.GaussianPolicy
	if err := json.Unmarshal(data, &pol); err != nil {
		return nil, fmt.Errorf("rlsched: decoding policy: %w", err)
	}
	return &pol, nil
}
