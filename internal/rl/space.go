// Package rl provides the reinforcement-learning substrate for the
// paper's RL-based allocation strategy: a Gymnasium-style environment
// interface and a from-scratch Proximal Policy Optimization (PPO)
// implementation with a diagonal-Gaussian MLP actor-critic, matching the
// Stable-Baselines3 configuration the paper uses (§4.1, §6.6).
package rl

import (
	"fmt"
	"math"
)

// Box is a continuous vector space with per-dimension bounds, mirroring
// gymnasium.spaces.Box.
type Box struct {
	Low  []float64
	High []float64
}

// NewBox constructs a Box with uniform bounds across dim dimensions.
func NewBox(low, high float64, dim int) Box {
	if dim <= 0 {
		panic(fmt.Sprintf("rl: Box dimension must be positive, got %d", dim))
	}
	if low >= high {
		panic(fmt.Sprintf("rl: Box low %g >= high %g", low, high))
	}
	l := make([]float64, dim)
	h := make([]float64, dim)
	for i := range l {
		l[i] = low
		h[i] = high
	}
	return Box{Low: l, High: h}
}

// Dim returns the dimensionality of the space.
func (b Box) Dim() int { return len(b.Low) }

// ClipInto clamps each component of x into the box and writes it to
// out (same length as x), which is returned. x itself is never
// modified, and no call allocates. It panics when x does not have the
// box's dimension.
func (b Box) ClipInto(x, out []float64) []float64 {
	if len(x) != len(b.Low) {
		panic(fmt.Sprintf("rl: ClipInto dim %d, want %d", len(x), len(b.Low)))
	}
	if len(out) != len(x) {
		panic(fmt.Sprintf("rl: ClipInto out dim %d, want %d", len(out), len(x)))
	}
	for i, v := range x {
		out[i] = math.Max(b.Low[i], math.Min(b.High[i], v))
	}
	return out
}

// Env is a Gymnasium-style episodic environment with continuous
// observation and action spaces. Environments own their randomness; the
// agent never seeds them directly.
type Env interface {
	// ObservationSpace describes observations returned by Reset and Step.
	ObservationSpace() Box
	// ActionSpace describes actions accepted by Step.
	ActionSpace() Box
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies an action and returns the next observation, the
	// reward, and whether the episode has terminated.
	Step(action []float64) (obs []float64, reward float64, done bool)
}
