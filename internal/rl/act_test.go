package rl

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSampleInto is the sampler as it stood before ActInto split
// the actor from the critic, kept as an executable specification: one
// actor pass, one normal draw per dimension in index order, then the
// log probability and the critic.
func referenceSampleInto(p *GaussianPolicy, rng *rand.Rand, obs, action []float64) (logProb, value float64) {
	mean := p.Actor.Forward(obs)
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		action[i] = mean[i] + std*rng.NormFloat64()
	}
	logProb = p.logProbGiven(mean, action)
	value = p.Critic.Forward(obs)[0]
	return logProb, value
}

// TestActIntoMatchesSampleInto checks that ActInto and SampleInto take
// the reference sampler's action bits and leave the RNG where it does:
// the next draw from each stream must be the same, over random seeds,
// observations and log-std vectors.
func TestActIntoMatchesSampleInto(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		setup := rand.New(rand.NewSource(seed))
		p := NewGaussianPolicy(setup, 16, 5, 64, 64)
		for i := range p.LogStd {
			p.LogStd[i] = setup.NormFloat64()
		}
		obs := make([]float64, 16)
		for i := range obs {
			obs[i] = setup.NormFloat64() * 3
		}
		ref := rand.New(rand.NewSource(seed * 7919))
		act := rand.New(rand.NewSource(seed * 7919))
		smp := rand.New(rand.NewSource(seed * 7919))
		want, gotAct, gotSmp := make([]float64, 5), make([]float64, 5), make([]float64, 5)
		for step := 0; step < 5; step++ {
			wantLP, wantV := referenceSampleInto(p, ref, obs, want)
			p.ActInto(act, obs, gotAct)
			lp, v := p.SampleInto(smp, obs, gotSmp)
			for i := range want {
				if math.Float64bits(gotAct[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d step %d: ActInto action[%d] = %v, want %v", seed, step, i, gotAct[i], want[i])
				}
				if math.Float64bits(gotSmp[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d step %d: SampleInto action[%d] = %v, want %v", seed, step, i, gotSmp[i], want[i])
				}
			}
			if math.Float64bits(lp) != math.Float64bits(wantLP) || math.Float64bits(v) != math.Float64bits(wantV) {
				t.Fatalf("seed %d step %d: SampleInto = (%v, %v), want (%v, %v)", seed, step, lp, v, wantLP, wantV)
			}
			next := ref.Int63()
			if a, s := act.Int63(), smp.Int63(); a != next || s != next {
				t.Fatalf("seed %d step %d: next draw ActInto %d, SampleInto %d, reference %d", seed, step, a, s, next)
			}
			obs[step] += 0.25
		}
	}
}
