package rl

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// referenceMinibatch is the pre-batching per-sample PPO gradient step,
// kept verbatim as an executable specification: one LogProb +
// backwardPolicy + Value + backwardValue round trip per sample, in
// batch order. updateMinibatch must reproduce it bit for bit.
func referenceMinibatch(p *PPO, pol *GaussianPolicy, opt *nn.Adam, batch []*transition) (polLoss, vfLoss, approxKL float64, clipped int) {
	pol.zeroGrad()
	invN := 1.0 / float64(len(batch))
	eps := p.Cfg.ClipRange
	for _, t := range batch {
		newLogProb := pol.LogProb(t.obs, t.action)
		logRatio := newLogProb - t.logProb
		ratio := math.Exp(logRatio)
		adv := t.advantage

		surr1 := ratio * adv
		surr2 := math.Max(math.Min(ratio, 1+eps), 1-eps) * adv
		loss := -math.Min(surr1, surr2)
		polLoss += loss * invN
		approxKL += (ratio - 1 - logRatio) * invN

		var dLdLogProb float64
		if surr1 <= surr2 {
			dLdLogProb = -adv * ratio
		} else {
			clipped++
			dLdLogProb = 0
		}
		pol.backwardPolicy(t.obs, t.action, dLdLogProb*invN, -p.Cfg.EntCoef*invN)

		v := pol.Value(t.obs)
		diff := v - t.ret
		vfLoss += diff * diff * invN
		pol.backwardValue(t.obs, 2*p.Cfg.VfCoef*diff*invN)
	}
	if p.Cfg.MaxGradNorm > 0 {
		if norm := pol.gradNorm(); norm > p.Cfg.MaxGradNorm {
			pol.scaleGrads(p.Cfg.MaxGradNorm / norm)
		}
	}
	params, grads := pol.params()
	opt.Step(params, grads)
	return polLoss, vfLoss, approxKL, clipped
}

// trainerWithRollout builds a PPO trainer with one collected rollout.
func trainerWithRollout(t *testing.T, entCoef float64) *PPO {
	t.Helper()
	env := newTargetEnv(11, 3)
	cfg := DefaultPPOConfig()
	cfg.NSteps = 96
	cfg.BatchSize = 32
	cfg.NEpochs = 1
	cfg.Hidden = []int{16, 16}
	cfg.Seed = 21
	cfg.EntCoef = entCoef
	agent := NewPPO(env, cfg)
	obs := env.Reset()
	agent.collectRollout(env, obs)
	return agent
}

// TestUpdateMinibatchMatchesPerSampleReference is the PPO-level
// batched==per-sample gate: the batched updateMinibatch must produce
// bit-identical losses, KL, clip counts and — after the Adam step —
// bit-identical parameters to the per-sample reference implementation.
func TestUpdateMinibatchMatchesPerSampleReference(t *testing.T) {
	for _, entCoef := range []float64{0, 0.01} {
		agent := trainerWithRollout(t, entCoef)
		refPol := agent.Policy.Clone()
		refOpt := nn.NewAdam(agent.Cfg.LR)

		// Two consecutive minibatches, including a short tail batch, so
		// workspace reuse across sizes is exercised.
		steps := agent.buffer.steps
		for _, span := range [][2]int{{0, 32}, {32, 52}} {
			batch := make([]*transition, 0, span[1]-span[0])
			for k := span[0]; k < span[1]; k++ {
				batch = append(batch, &steps[k])
			}
			normalizeAdvantages(batch)

			pl, vl, kl, clip := agent.updateMinibatch(batch)
			rpl, rvl, rkl, rclip := referenceMinibatch(agent, refPol, refOpt, batch)
			if pl != rpl || vl != rvl || kl != rkl || clip != rclip {
				t.Fatalf("entCoef %g span %v: stats diverge: (%g,%g,%g,%d) vs (%g,%g,%g,%d)",
					entCoef, span, pl, vl, kl, clip, rpl, rvl, rkl, rclip)
			}
			params, _ := agent.Policy.params()
			refParams, _ := refPol.params()
			for i := range params {
				for j := range params[i] {
					if params[i][j] != refParams[i][j] {
						t.Fatalf("entCoef %g span %v: param[%d][%d] = %g, reference %g (bit-exact required)",
							entCoef, span, i, j, params[i][j], refParams[i][j])
					}
				}
			}
		}
	}
}

// TestSampleIntoMatchesSample pins the allocation-free inference paths
// to their allocating counterparts, including RNG stream consumption.
func TestSampleIntoMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewGaussianPolicy(rng, 6, 3, 16, 16)
	obs := []float64{0.1, -0.2, 0.3, -0.4, 0.5, -0.6}

	r1 := rand.New(rand.NewSource(33))
	r2 := rand.New(rand.NewSource(33))
	for iter := 0; iter < 20; iter++ {
		a1, lp1, v1 := p.Sample(r1, obs)
		a2 := make([]float64, 3)
		lp2, v2 := p.SampleInto(r2, obs, a2)
		if lp1 != lp2 || v1 != v2 {
			t.Fatalf("iter %d: (%g,%g) vs (%g,%g)", iter, lp1, v1, lp2, v2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("iter %d action %d: %g != %g", iter, i, a1[i], a2[i])
			}
		}
	}

	want := p.MeanAction(obs)
	got := make([]float64, 3)
	p.MeanActionInto(obs, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mean action %d: %g != %g", i, got[i], want[i])
		}
	}
}

// TestPolicyInferenceZeroAllocs is the issue's inference allocation
// gate: steady-state action selection (sampled and deterministic) and
// value estimation must not allocate.
func TestPolicyInferenceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewGaussianPolicy(rng, 16, 5, 64, 64)
	obs := make([]float64, 16)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	action := make([]float64, 5)
	if n := testing.AllocsPerRun(100, func() { p.ActInto(rng, obs, action) }); n != 0 {
		t.Errorf("ActInto allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.SampleInto(rng, obs, action) }); n != 0 {
		t.Errorf("SampleInto allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.MeanActionInto(obs, action) }); n != 0 {
		t.Errorf("MeanActionInto allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.Value(obs) }); n != 0 {
		t.Errorf("Value allocates %g/op, want 0", n)
	}
}

// TestUpdateAfterCheckpointLoad guards the cached optimizer views: a
// checkpoint unmarshalled into agent.Policy replaces the actor/critic
// networks wholesale, and Update must re-derive its parameter views
// instead of silently optimizing the orphaned buffers.
func TestUpdateAfterCheckpointLoad(t *testing.T) {
	agent := trainerWithRollout(t, 0)
	data, err := json.Marshal(agent.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, agent.Policy); err != nil {
		t.Fatal(err)
	}
	var loaded GaussianPolicy
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	agent.Update()
	params, _ := agent.Policy.params()
	refParams, _ := loaded.params()
	moved := false
	for i := range params {
		for j := range params[i] {
			if params[i][j] != refParams[i][j] {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("Update left the reloaded policy untouched: cached parameter views went stale")
	}
}

// TestPPOUpdateZeroAllocs asserts the whole epoch loop — shuffling,
// minibatch assembly, advantage normalization, batched forward/backward
// and the Adam step — runs allocation-free once the trainer is warm.
func TestPPOUpdateZeroAllocs(t *testing.T) {
	agent := trainerWithRollout(t, 0.01)
	agent.Update() // warm up Adam's lazily allocated moment buffers
	if n := testing.AllocsPerRun(5, func() { agent.Update() }); n != 0 {
		t.Errorf("Update allocates %g/op, want 0", n)
	}
}
