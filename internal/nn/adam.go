package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over parameter
// slices produced by MLP.Params. Stable-Baselines3's PPO defaults are
// lr=3e-4, β1=0.9, β2=0.999, ε=1e-8 — the values used by the paper.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m    [][]float64
	v    [][]float64
}

// NewAdam creates an Adam optimizer with the given learning rate and the
// standard moment decay constants.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: non-positive learning rate %g", lr))
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to params in place using grads. The two
// slices-of-slices must have identical shapes across calls (moment
// buffers are lazily allocated on first use).
func (a *Adam) Step(params, grads [][]float64) {
	if len(params) != len(grads) {
		panic("nn: Adam.Step params/grads length mismatch")
	}
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p))
			a.v[i] = make([]float64, len(p))
		}
	}
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		g := grads[i]
		if len(p) != len(g) || len(p) != len(a.m[i]) {
			panic("nn: Adam.Step shape mismatch")
		}
		m, v := a.m[i], a.v[i]
		for j := range p {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mHat := m[j] / c1
			vHat := v[j] / c2
			p[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}
