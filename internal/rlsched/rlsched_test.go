package rlsched

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
)

func fleetInfo(t *testing.T) []DeviceInfo {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	return InfoFromFleet(fleet)
}

func TestObservationLayout(t *testing.T) {
	devs := []policy.DeviceState{
		{Free: 127, ErrorScore: 0.008, CLOPS: 220000},
		{Free: 75, ErrorScore: 0.010, CLOPS: 30000},
	}
	obs := Observation(190, devs)
	if len(obs) != StateDim {
		t.Fatalf("len = %d, want %d", len(obs), StateDim)
	}
	if math.Abs(obs[0]-190.0/QMax) > 1e-12 {
		t.Fatalf("obs[0] = %g", obs[0])
	}
	if math.Abs(obs[1]-127.0/LevelNorm) > 1e-12 {
		t.Fatalf("obs[1] = %g", obs[1])
	}
	if math.Abs(obs[2]-0.008*ErrScale) > 1e-12 {
		t.Fatalf("obs[2] = %g", obs[2])
	}
	if math.Abs(obs[3]-0.22) > 1e-12 {
		t.Fatalf("obs[3] = %g", obs[3])
	}
	// Padding beyond device 2 must be zero.
	for i := 7; i < StateDim; i++ {
		if obs[i] != 0 {
			t.Fatalf("obs[%d] = %g, want 0 (padding)", i, obs[i])
		}
	}
}

func TestInfoFromFleet(t *testing.T) {
	info := fleetInfo(t)
	if len(info) != 5 {
		t.Fatalf("info = %d devices", len(info))
	}
	for _, di := range info {
		if di.Eps1Q <= 0 || di.Eps2Q <= 0 || di.EpsRO <= 0 {
			t.Fatalf("%s: zero error rates", di.State.Name)
		}
		if di.State.Free != 127 || di.State.Capacity != 127 {
			t.Fatalf("%s: free/capacity %d/%d", di.State.Name, di.State.Free, di.State.Capacity)
		}
	}
}

func TestSharesFromWeights(t *testing.T) {
	free := []int{127, 127, 127, 127, 127}
	shares := SharesFromWeights(190, []float64{1, 1, 0, 0, 0}, free)
	sum := 0
	for _, s := range shares {
		sum += s
	}
	if sum != 190 {
		t.Fatalf("shares %v sum to %d", shares, sum)
	}
	// First two devices carry essentially everything (ε leakage may
	// assign a qubit elsewhere via rounding, but not more).
	if shares[0]+shares[1] < 188 {
		t.Fatalf("weighted devices got %d of 190", shares[0]+shares[1])
	}
	// All-zero action must still allocate via the ε offset.
	zero := SharesFromWeights(190, []float64{0, 0, 0, 0, 0}, free)
	sum = 0
	for _, s := range zero {
		sum += s
	}
	if sum != 190 {
		t.Fatalf("zero action shares %v", zero)
	}
	// Out-of-range weights are clipped, not trusted.
	wild := SharesFromWeights(190, []float64{-5, 99, 0.5, 0.5, 0.5}, free)
	sum = 0
	for _, s := range wild {
		if s < 0 {
			t.Fatalf("negative share in %v", wild)
		}
		sum += s
	}
	if sum != 190 {
		t.Fatalf("wild action shares %v", wild)
	}
	// Infeasible job: nil.
	if s := SharesFromWeights(700, []float64{1, 1, 1, 1, 1}, free); s != nil {
		t.Fatalf("oversized job got shares %v", s)
	}
}

func TestAllocationRewardPrefersLowErrorDevices(t *testing.T) {
	info := fleetInfo(t)
	j := &job.QJob{ID: "r", NumQubits: 190, Depth: 10, Shots: 1000, TwoQubitGates: 475}
	// Indices: 0 strasbourg, 1 brussels, 2 kyiv, 3 quebec, 4 kawasaki.
	good := []int{0, 0, 63, 127, 0} // low-error slow pair
	bad := []int{0, 63, 0, 0, 127}  // brussels + kawasaki (worst)
	rGood := AllocationReward(j, info, good)
	rBad := AllocationReward(j, info, bad)
	if rGood <= rBad {
		t.Fatalf("low-error allocation reward %g should beat %g", rGood, rBad)
	}
	if rGood <= 0 || rGood >= 1 {
		t.Fatalf("reward %g outside (0,1)", rGood)
	}
	if AllocationReward(j, info, []int{0, 0, 0, 0, 0}) != 0 {
		t.Fatal("empty allocation should reward 0")
	}
}

func TestAllocationRewardPrefersSpreading(t *testing.T) {
	// The §4.1 reward (no comm penalty) favours splitting across devices
	// because each partition's readout exponent √a_i shrinks — this is
	// exactly why the trained policy over-splits and loses final
	// fidelity, the paper's §7 observation.
	info := fleetInfo(t)
	j := &job.QJob{ID: "s", NumQubits: 190, Depth: 10, Shots: 1000, TwoQubitGates: 475}
	concentrated := []int{127, 63, 0, 0, 0}
	spread := []int{38, 38, 38, 38, 38}
	if AllocationReward(j, info, spread) <= AllocationReward(j, info, concentrated) {
		t.Fatal("spreading should increase the (comm-blind) reward")
	}
}

func TestGymEnvInterface(t *testing.T) {
	env, err := NewGymEnv(fleetInfo(t), DefaultGymConfig())
	if err != nil {
		t.Fatal(err)
	}
	if env.ObservationSpace().Dim() != StateDim {
		t.Fatal("observation space dim wrong")
	}
	if env.ActionSpace().Dim() != NumDevices {
		t.Fatal("action space dim wrong")
	}
	obs := env.Reset()
	if len(obs) != StateDim {
		t.Fatalf("obs len = %d", len(obs))
	}
	if obs[0] < 130.0/QMax || obs[0] > 1.0 {
		t.Fatalf("job feature %g outside workload range", obs[0])
	}
	next, reward, done := env.Step([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
	if !done {
		t.Fatal("episodes must be single-step")
	}
	if next != nil {
		t.Fatal("terminal observation should be nil")
	}
	if reward <= 0 || reward >= 1 {
		t.Fatalf("reward = %g", reward)
	}
	st := env.Stats()
	if st.Episodes != 1 || st.LastReward != reward {
		t.Fatalf("stats %+v", st)
	}
}

func TestGymEnvStepBeforeResetPanics(t *testing.T) {
	env, _ := NewGymEnv(fleetInfo(t), DefaultGymConfig())
	env.Reset()
	env.Step([]float64{1, 1, 1, 1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Step after terminal without Reset")
		}
	}()
	env.Step([]float64{1, 1, 1, 1, 1})
}

func TestGymEnvRandomizedLevelsFeasible(t *testing.T) {
	cfg := DefaultGymConfig()
	cfg.RandomizeLevels = true
	env, err := NewGymEnv(fleetInfo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		env.Reset()
		_, reward, done := env.Step([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
		if !done {
			t.Fatal("not done")
		}
		if reward <= 0 {
			t.Fatalf("episode %d: infeasible state produced reward %g", i, reward)
		}
	}
}

func TestGymEnvValidation(t *testing.T) {
	info := fleetInfo(t)
	if _, err := NewGymEnv(nil, DefaultGymConfig()); err == nil {
		t.Error("empty fleet accepted")
	}
	bad := DefaultGymConfig()
	bad.MinQubits = 0
	if _, err := NewGymEnv(info, bad); err == nil {
		t.Error("bad qubit range accepted")
	}
	bad = DefaultGymConfig()
	bad.MaxQubits = 1000
	if _, err := NewGymEnv(info, bad); err == nil {
		t.Error("jobs beyond fleet capacity accepted")
	}
}

// TestTrainRefusesNonPositiveTimesteps: a training budget below one
// step is an error, not an untrained policy.
func TestTrainRefusesNonPositiveTimesteps(t *testing.T) {
	info := fleetInfo(t)
	for _, steps := range []int{0, -5} {
		pol, hist, err := Train(info, DefaultGymConfig(), rl.DefaultPPOConfig(), steps, nil)
		if err == nil || pol != nil || hist != nil {
			t.Errorf("Train(%d timesteps) = %v, %d iterations, %v; want an error", steps, pol, len(hist), err)
		}
	}
}

func TestShortTrainingImprovesReward(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	info := fleetInfo(t)
	ppoCfg := rl.DefaultPPOConfig()
	ppoCfg.NSteps = 512
	ppoCfg.BatchSize = 64
	ppoCfg.NEpochs = 4
	ppoCfg.Seed = 3
	pol, hist, err := Train(info, DefaultGymConfig(), ppoCfg, 512*12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil || len(hist) != 12 {
		t.Fatalf("policy %v, iterations %d", pol, len(hist))
	}
	first, last := hist[0].MeanEpisodeReward, hist[len(hist)-1].MeanEpisodeReward
	if last < first-0.01 {
		t.Fatalf("training regressed: %g -> %g", first, last)
	}
	// Rewards live in the fidelity range.
	if first < 0.3 || first > 1 {
		t.Fatalf("initial reward %g implausible", first)
	}
}

func TestRLPolicyProducesValidAllocations(t *testing.T) {
	info := fleetInfo(t)
	// Untrained policy is fine for contract checking.
	env, _ := NewGymEnv(info, DefaultGymConfig())
	agent := rl.NewPPO(env, func() rl.PPOConfig {
		c := rl.DefaultPPOConfig()
		c.NSteps = 64
		c.BatchSize = 32
		c.NEpochs = 1
		return c
	}())
	rp := NewRLPolicy(agent.Policy, 11)
	if rp.Name() != "rlbase" {
		t.Fatalf("Name = %q", rp.Name())
	}
	states := make([]policy.DeviceState, len(info))
	for i, di := range info {
		states[i] = di.State
	}
	j := &job.QJob{ID: "d", NumQubits: 190, Depth: 10, Shots: 1000, TwoQubitGates: 475}
	for trial := 0; trial < 50; trial++ {
		allocs := rp.Allocate(j, states)
		if allocs == nil {
			t.Fatal("idle fleet should always place the job")
		}
		if err := policy.Validate(j, states, allocs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// Saturated fleet: wait.
	for i := range states {
		states[i].Free = 10
	}
	if got := rp.Allocate(j, states); got != nil {
		t.Fatalf("saturated fleet should wait, got %v", got)
	}
}

func TestRLPolicyDeterministicMode(t *testing.T) {
	info := fleetInfo(t)
	env, _ := NewGymEnv(info, DefaultGymConfig())
	agent := rl.NewPPO(env, func() rl.PPOConfig {
		c := rl.DefaultPPOConfig()
		c.NSteps = 64
		c.BatchSize = 32
		c.NEpochs = 1
		return c
	}())
	rp := NewRLPolicy(agent.Policy, 1)
	rp.Deterministic = true
	states := make([]policy.DeviceState, len(info))
	for i, di := range info {
		states[i] = di.State
	}
	j := &job.QJob{ID: "d", NumQubits: 200, Depth: 8, Shots: 1000, TwoQubitGates: 400}
	a := rp.Allocate(j, states)
	b := rp.Allocate(j, states)
	if len(a) != len(b) {
		t.Fatal("deterministic mode should repeat allocations")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deterministic mode should repeat allocations")
		}
	}
}

func TestSaveLoadPolicyRoundTrip(t *testing.T) {
	info := fleetInfo(t)
	env, _ := NewGymEnv(info, DefaultGymConfig())
	agent := rl.NewPPO(env, func() rl.PPOConfig {
		c := rl.DefaultPPOConfig()
		c.NSteps = 64
		c.BatchSize = 32
		c.NEpochs = 1
		return c
	}())
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := SavePolicy(path, agent.Policy); err != nil {
		t.Fatalf("SavePolicy: %v", err)
	}
	loaded, err := LoadPolicy(path)
	if err != nil {
		t.Fatalf("LoadPolicy: %v", err)
	}
	obs := Observation(190, []policy.DeviceState{{Free: 127, CLOPS: 1000, ErrorScore: 0.01}})
	want := agent.Policy.MeanAction(obs)
	got := loaded.MeanAction(obs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("loaded policy diverges")
		}
	}
	if _, err := LoadPolicy(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}
