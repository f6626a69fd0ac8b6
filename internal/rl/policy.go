package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
)

// log(2π), used by the Gaussian log-density.
const log2Pi = 1.8378770664093453

// GaussianPolicy is a diagonal-Gaussian actor-critic: an MLP maps the
// observation to the action mean, a state-independent learnable log-std
// vector sets exploration noise, and a separate MLP estimates state
// value. This matches Stable-Baselines3's MlpPolicy for Box actions.
type GaussianPolicy struct {
	Actor  *nn.MLP
	Critic *nn.MLP
	// LogStd is the per-dimension log standard deviation (learnable).
	LogStd []float64

	gradLogStd []float64
	// dMean is backwardPolicy's per-call scratch, preallocated so the
	// per-sample backward path allocates nothing in steady state.
	dMean []float64
}

// NewGaussianPolicy builds an actor-critic with the given hidden layout
// (e.g. 64,64) for an environment with obsDim observations and actDim
// actions. LogStd starts at 0 (σ=1), the SB3 default.
func NewGaussianPolicy(rng *rand.Rand, obsDim, actDim int, hidden ...int) *GaussianPolicy {
	if len(hidden) == 0 {
		hidden = []int{64, 64}
	}
	actorSizes := append(append([]int{obsDim}, hidden...), actDim)
	criticSizes := append(append([]int{obsDim}, hidden...), 1)
	return &GaussianPolicy{
		Actor:      nn.NewMLP(rng, nn.Tanh, actorSizes...),
		Critic:     nn.NewMLP(rng, nn.Tanh, criticSizes...),
		LogStd:     make([]float64, actDim),
		gradLogStd: make([]float64, actDim),
		dMean:      make([]float64, actDim),
	}
}

// Clone returns a deep copy with identical weights and fresh internal
// buffers. MLP forward passes cache activations, so a policy shared
// between goroutines races; give each worker its own clone instead.
func (p *GaussianPolicy) Clone() *GaussianPolicy {
	return &GaussianPolicy{
		Actor:      p.Actor.Clone(),
		Critic:     p.Critic.Clone(),
		LogStd:     append([]float64(nil), p.LogStd...),
		gradLogStd: make([]float64, len(p.gradLogStd)),
		dMean:      make([]float64, len(p.LogStd)),
	}
}

// ActDim returns the action dimensionality.
func (p *GaussianPolicy) ActDim() int { return len(p.LogStd) }

// Sample draws an action from π(·|obs) and returns the action, its log
// probability, and the value estimate.
func (p *GaussianPolicy) Sample(rng *rand.Rand, obs []float64) (action []float64, logProb, value float64) {
	action = make([]float64, len(p.LogStd))
	logProb, value = p.SampleInto(rng, obs, action)
	return action, logProb, value
}

// SampleInto is the allocation-free Sample: it draws an action from
// π(·|obs) into action (length ActDim) and returns the log probability
// and value estimate. It consumes the same RNG stream as Sample, so the
// two are interchangeable bit-for-bit. It is ActInto plus the log
// probability and the critic, which training needs and deployment does
// not.
//
//repro:noalloc
func (p *GaussianPolicy) SampleInto(rng *rand.Rand, obs, action []float64) (logProb, value float64) {
	mean := p.act(rng, obs, action)
	logProb = p.logProbGiven(mean, action)
	value = p.Critic.Forward(obs)[0]
	return logProb, value
}

// ActInto draws an action from π(·|obs) into action (length ActDim),
// running the actor alone: the deployment path. It draws exactly the
// normal variates SampleInto draws, in the same order, so a deployment
// that calls ActInto takes the same actions and leaves its RNG where a
// SampleInto caller would.
//
//repro:noalloc
func (p *GaussianPolicy) ActInto(rng *rand.Rand, obs, action []float64) {
	p.act(rng, obs, action)
}

// act is ActInto returning the actor's mean, which aliases the actor's
// output scratch until its next Forward.
//
//repro:noalloc
func (p *GaussianPolicy) act(rng *rand.Rand, obs, action []float64) []float64 {
	mean := p.Actor.Forward(obs)
	if len(action) != len(mean) {
		panic(fmt.Sprintf("rl: ActInto action dim %d, want %d", len(action), len(mean)))
	}
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		action[i] = mean[i] + std*rng.NormFloat64()
	}
	return mean
}

// MeanAction returns the deterministic (mean) action for deployment.
func (p *GaussianPolicy) MeanAction(obs []float64) []float64 {
	out := make([]float64, len(p.LogStd))
	p.MeanActionInto(obs, out)
	return out
}

// MeanActionInto is the allocation-free MeanAction: the mean action is
// written into out (length ActDim).
//
//repro:noalloc
func (p *GaussianPolicy) MeanActionInto(obs, out []float64) {
	mean := p.Actor.Forward(obs)
	if len(out) != len(mean) {
		panic(fmt.Sprintf("rl: MeanActionInto out dim %d, want %d", len(out), len(mean)))
	}
	copy(out, mean)
}

// Value returns the critic's estimate for obs.
func (p *GaussianPolicy) Value(obs []float64) float64 {
	return p.Critic.Forward(obs)[0]
}

// LogProb recomputes log π(action|obs) with the current parameters,
// re-running the actor forward pass (so a following backward call sees
// fresh caches).
func (p *GaussianPolicy) LogProb(obs, action []float64) float64 {
	mean := p.Actor.Forward(obs)
	return p.logProbGiven(mean, action)
}

func (p *GaussianPolicy) logProbGiven(mean, action []float64) float64 {
	lp := 0.0
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		z := (action[i] - mean[i]) / std
		lp += -0.5*z*z - p.LogStd[i] - 0.5*log2Pi
	}
	return lp
}

// Entropy returns the differential entropy of the current Gaussian:
// Σ (logσ_i + ½ log 2πe). It is state-independent for this policy class.
func (p *GaussianPolicy) Entropy() float64 {
	h := 0.0
	for _, ls := range p.LogStd {
		h += ls + 0.5*(log2Pi+1)
	}
	return h
}

// backwardPolicy accumulates actor and log-std gradients for a loss term
// L whose derivative with respect to log π(a|s) is dLdLogProb, and whose
// derivative with respect to the entropy is dLdEntropy. The actor forward
// cache must correspond to obs (call LogProb first).
func (p *GaussianPolicy) backwardPolicy(obs, action []float64, dLdLogProb, dLdEntropy float64) {
	mean := p.Actor.Forward(obs)
	dMean := p.dMean
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		z := (action[i] - mean[i]) / std
		// ∂logp/∂mean_i = z/σ ; ∂logp/∂logσ_i = z² − 1 ; ∂H/∂logσ_i = 1.
		dMean[i] = dLdLogProb * z / std
		p.gradLogStd[i] += dLdLogProb*(z*z-1) + dLdEntropy
	}
	p.Actor.Backward(dMean)
}

// backwardValue accumulates critic gradients for a loss term whose
// derivative with respect to V(s) is dLdValue.
func (p *GaussianPolicy) backwardValue(obs []float64, dLdValue float64) {
	p.Critic.Forward(obs)
	p.Critic.Backward([]float64{dLdValue})
}

// zeroGrad clears all accumulated gradients.
func (p *GaussianPolicy) zeroGrad() {
	p.Actor.ZeroGrad()
	p.Critic.ZeroGrad()
	for i := range p.gradLogStd {
		p.gradLogStd[i] = 0
	}
}

// params returns all parameters and gradients for the optimizer.
func (p *GaussianPolicy) params() (params, grads [][]float64) {
	pa, ga := p.Actor.Params()
	pc, gc := p.Critic.Params()
	params = append(append(pa, pc...), p.LogStd)
	grads = append(append(ga, gc...), p.gradLogStd)
	return params, grads
}

// gradNorm returns the global L2 norm across actor, critic and log-std
// gradients.
func (p *GaussianPolicy) gradNorm() float64 {
	s := p.Actor.GradNorm()
	c := p.Critic.GradNorm()
	ls := 0.0
	for _, g := range p.gradLogStd {
		ls += g * g
	}
	return math.Sqrt(s*s + c*c + ls)
}

// scaleGrads multiplies every gradient by f.
func (p *GaussianPolicy) scaleGrads(f float64) {
	p.Actor.ScaleGrads(f)
	p.Critic.ScaleGrads(f)
	for i := range p.gradLogStd {
		p.gradLogStd[i] *= f
	}
}

// policyJSON is the on-disk schema for a trained policy.
type policyJSON struct {
	Actor  *nn.MLP   `json:"actor"`
	Critic *nn.MLP   `json:"critic"`
	LogStd []float64 `json:"log_std"`
}

// MarshalJSON serializes the policy (architecture + weights).
func (p *GaussianPolicy) MarshalJSON() ([]byte, error) {
	return json.Marshal(policyJSON{Actor: p.Actor, Critic: p.Critic, LogStd: p.LogStd})
}

// UnmarshalJSON restores a serialized policy.
func (p *GaussianPolicy) UnmarshalJSON(data []byte) error {
	var j struct {
		Actor  json.RawMessage `json:"actor"`
		Critic json.RawMessage `json:"critic"`
		LogStd []float64       `json:"log_std"`
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.LogStd) == 0 {
		return fmt.Errorf("rl: corrupt policy: empty log_std")
	}
	var actor, critic nn.MLP
	if err := json.Unmarshal(j.Actor, &actor); err != nil {
		return fmt.Errorf("rl: corrupt actor: %w", err)
	}
	if err := json.Unmarshal(j.Critic, &critic); err != nil {
		return fmt.Errorf("rl: corrupt critic: %w", err)
	}
	if actor.OutputSize() != len(j.LogStd) {
		return fmt.Errorf("rl: actor output %d != log_std %d", actor.OutputSize(), len(j.LogStd))
	}
	p.Actor = &actor
	p.Critic = &critic
	p.LogStd = j.LogStd
	// Reuse the gradient/scratch buffers when the shape is unchanged
	// (zeroing instead of reallocating); otherwise size them fresh.
	if len(p.gradLogStd) == len(j.LogStd) {
		for i := range p.gradLogStd {
			p.gradLogStd[i] = 0
		}
	} else {
		p.gradLogStd = make([]float64, len(j.LogStd))
	}
	if len(p.dMean) != len(j.LogStd) {
		p.dMean = make([]float64, len(j.LogStd))
	}
	return nil
}
