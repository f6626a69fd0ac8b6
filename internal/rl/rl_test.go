package rl

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox(-1, 1, 3)
	if b.Dim() != 3 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	x := []float64{-5, 0.2, 7}
	c := b.ClipInto(x, make([]float64, 3))
	if c[0] != -1 || c[1] != 0.2 || c[2] != 1 {
		t.Fatalf("ClipInto = %v", c)
	}
	if x[0] != -5 || x[2] != 7 {
		t.Fatalf("ClipInto modified its input: %v", x)
	}
}

func TestBoxValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewBox(0, 1, 0) },
		func() { NewBox(1, 1, 2) },
		func() { NewBox(-1, 1, 2).ClipInto([]float64{0}, []float64{0}) },
		func() { NewBox(-1, 1, 2).ClipInto([]float64{0, 0}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGaussianLogProbMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewGaussianPolicy(rng, 3, 2, 8)
	obs := []float64{0.1, -0.2, 0.3}
	mean := p.Actor.Forward(obs)
	action := []float64{mean[0] + 0.5, mean[1] - 1.0}
	got := p.LogProb(obs, action)
	want := 0.0
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		want += -0.5*math.Pow((action[i]-mean[i])/std, 2) - math.Log(std) - 0.5*math.Log(2*math.Pi)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogProb = %g, want %g", got, want)
	}
}

func TestGaussianEntropyClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewGaussianPolicy(rng, 3, 5, 8)
	// At logstd=0, per-dim entropy = 0.5*ln(2πe) ≈ 1.4189; 5 dims ≈ 7.094.
	want := 5 * 0.5 * math.Log(2*math.Pi*math.E)
	if math.Abs(p.Entropy()-want) > 1e-9 {
		t.Fatalf("Entropy = %g, want %g", p.Entropy(), want)
	}
	// This is the paper's Fig.5 starting point: entropy loss ≈ −7.
	if math.Abs(-p.Entropy()-(-7.09)) > 0.01 {
		t.Fatalf("initial entropy loss = %g, expected ≈ −7.09", -p.Entropy())
	}
}

func TestGaussianSampleStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewGaussianPolicy(rng, 2, 1, 8)
	obs := []float64{0.4, -0.4}
	mean := p.Actor.Forward(obs)[0]
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		a, _, _ := p.Sample(rng, obs)
		sum += a[0]
		sumSq += a[0] * a[0]
	}
	m := sum / float64(n)
	v := sumSq/float64(n) - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Fatalf("sample mean %g, want %g", m, mean)
	}
	if math.Abs(v-1.0) > 0.05 {
		t.Fatalf("sample variance %g, want 1 (logstd=0)", v)
	}
}

func TestPolicyGradCheckLogProb(t *testing.T) {
	// Verify backwardPolicy's mean-path gradient against numerical
	// differentiation through the actor.
	rng := rand.New(rand.NewSource(8))
	p := NewGaussianPolicy(rng, 2, 2, 6)
	obs := []float64{0.5, -0.25}
	action := []float64{0.3, -0.9}

	p.zeroGrad()
	p.backwardPolicy(obs, action, 1.0, 0) // dL/dlogp = 1
	_, grads := p.params()

	params, _ := p.params()
	const h = 1e-6
	// Check several actor weight entries (params[0] is actor layer 0 W).
	for i := 0; i < len(params[0]); i += 7 {
		orig := params[0][i]
		params[0][i] = orig + h
		lp := p.LogProb(obs, action)
		params[0][i] = orig - h
		lm := p.LogProb(obs, action)
		params[0][i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grads[0][i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("actor grad idx %d: analytic %g numeric %g", i, grads[0][i], num)
		}
	}
	// Check logstd gradient (last params entry).
	last := len(params) - 1
	for i := range params[last] {
		orig := params[last][i]
		params[last][i] = orig + h
		lp := p.LogProb(obs, action)
		params[last][i] = orig - h
		lm := p.LogProb(obs, action)
		params[last][i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grads[last][i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("logstd grad idx %d: analytic %g numeric %g", i, grads[last][i], num)
		}
	}
}

func TestGAESingleStepEpisodes(t *testing.T) {
	// For single-step episodes (the paper's setting), GAE reduces to
	// advantage = reward − V(s), return = reward.
	b := newRolloutBuffer(4, 0, 0)
	for i := 0; i < 4; i++ {
		b.add(transition{reward: float64(i), value: 0.5, done: true})
	}
	b.computeAdvantages(0.99, 0.95, 123.0) // lastValue must be ignored
	for i, s := range b.steps {
		wantAdv := float64(i) - 0.5
		if math.Abs(s.advantage-wantAdv) > 1e-12 {
			t.Fatalf("step %d advantage = %g, want %g", i, s.advantage, wantAdv)
		}
		if math.Abs(s.ret-float64(i)) > 1e-12 {
			t.Fatalf("step %d return = %g, want %g", i, s.ret, float64(i))
		}
	}
}

func TestGAEMultiStep(t *testing.T) {
	// Two-step episode, γ=1, λ=1: advantage_0 = r0 + r1 − V0.
	b := newRolloutBuffer(2, 0, 0)
	b.add(transition{reward: 1, value: 0.2, done: false})
	b.add(transition{reward: 2, value: 0.3, done: true})
	b.computeAdvantages(1.0, 1.0, 0)
	want0 := 1 + 2 - 0.2
	if math.Abs(b.steps[0].advantage-want0) > 1e-12 {
		t.Fatalf("advantage0 = %g, want %g", b.steps[0].advantage, want0)
	}
}

func TestGAEBootstrapsLastValue(t *testing.T) {
	// Unfinished episode: last value must be bootstrapped.
	b := newRolloutBuffer(1, 0, 0)
	b.add(transition{reward: 1, value: 0, done: false})
	b.computeAdvantages(0.5, 1.0, 10.0)
	// delta = 1 + 0.5*10 - 0 = 6
	if math.Abs(b.steps[0].advantage-6) > 1e-12 {
		t.Fatalf("advantage = %g, want 6", b.steps[0].advantage)
	}
}

func TestNormalizeAdvantages(t *testing.T) {
	ts := []*transition{{advantage: 1}, {advantage: 2}, {advantage: 3}}
	normalizeAdvantages(ts)
	mean := (ts[0].advantage + ts[1].advantage + ts[2].advantage) / 3
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("mean = %g, want 0", mean)
	}
	if ts[2].advantage <= ts[1].advantage || ts[1].advantage <= ts[0].advantage {
		t.Fatal("normalization must preserve order")
	}
	// Single element: untouched.
	one := []*transition{{advantage: 5}}
	normalizeAdvantages(one)
	if one[0].advantage != 5 {
		t.Fatal("single-element batch should be untouched")
	}
}

// targetEnv is a single-step continuous control task: the observation is
// a random target in [-0.5, 0.5]^d and the reward is 1 − mean|a − target|.
// The optimal policy copies the observation, achieving reward 1.
type targetEnv struct {
	rng *rand.Rand
	dim int
	cur []float64
}

func newTargetEnv(seed int64, dim int) *targetEnv {
	return &targetEnv{rng: rand.New(rand.NewSource(seed)), dim: dim}
}

func (e *targetEnv) ObservationSpace() Box { return NewBox(-0.5, 0.5, e.dim) }
func (e *targetEnv) ActionSpace() Box      { return NewBox(-1, 1, e.dim) }

func (e *targetEnv) Reset() []float64 {
	e.cur = make([]float64, e.dim)
	for i := range e.cur {
		e.cur[i] = e.rng.Float64() - 0.5
	}
	return append([]float64(nil), e.cur...)
}

func (e *targetEnv) Step(a []float64) ([]float64, float64, bool) {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - e.cur[i])
	}
	return nil, 1 - s/float64(e.dim), true
}

func TestPPOImprovesOnTargetEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	env := newTargetEnv(5, 2)
	cfg := DefaultPPOConfig()
	cfg.NSteps = 256
	cfg.BatchSize = 64
	cfg.NEpochs = 5
	cfg.Hidden = []int{32, 32}
	cfg.Seed = 4
	agent := NewPPO(env, cfg)
	hist := agent.Learn(env, 256*60, nil)
	if len(hist) != 60 {
		t.Fatalf("iterations = %d, want 60", len(hist))
	}
	early := hist[0].MeanEpisodeReward
	lateSum := 0.0
	for _, h := range hist[len(hist)-5:] {
		lateSum += h.MeanEpisodeReward
	}
	late := lateSum / 5
	if late <= early+0.05 {
		t.Fatalf("PPO did not improve: first %g, last5 avg %g", early, late)
	}
	// The deterministic policy should track targets on average: a random
	// (untrained) policy has mean |a−target| ≈ 0.5 on this task.
	evalRng := rand.New(rand.NewSource(99))
	sumErr, n := 0.0, 0
	for i := 0; i < 50; i++ {
		obs := []float64{evalRng.Float64() - 0.5, evalRng.Float64() - 0.5}
		a := agent.Policy.MeanAction(obs)
		for d := range a {
			sumErr += math.Abs(a[d] - obs[d])
			n++
		}
	}
	if meanErr := sumErr / float64(n); meanErr > 0.3 {
		t.Fatalf("trained policy tracks poorly: mean |a-target| = %g", meanErr)
	}
}

func TestPPOEntropyDecreasesWithTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	env := newTargetEnv(6, 2)
	cfg := DefaultPPOConfig()
	cfg.NSteps = 256
	cfg.NEpochs = 5
	cfg.Hidden = []int{32, 32}
	agent := NewPPO(env, cfg)
	hist := agent.Learn(env, 256*25, nil)
	first := hist[0].EntropyLoss
	last := hist[len(hist)-1].EntropyLoss
	// On a deterministic-optimum task the Gaussian should narrow, so
	// entropy falls and entropy *loss* rises (becomes less negative) —
	// the Fig. 5 trend.
	if last <= first {
		t.Fatalf("entropy loss should increase: first %g, last %g", first, last)
	}
}

func TestPPOTotalStepsAndCallback(t *testing.T) {
	env := newTargetEnv(7, 1)
	cfg := DefaultPPOConfig()
	cfg.NSteps = 64
	cfg.BatchSize = 32
	cfg.NEpochs = 2
	cfg.Hidden = []int{8}
	agent := NewPPO(env, cfg)
	calls := 0
	agent.Learn(env, 128, func(s TrainStats) {
		calls++
		if s.Timesteps%64 != 0 {
			t.Errorf("Timesteps = %d, want multiple of 64", s.Timesteps)
		}
	})
	if calls != 2 {
		t.Fatalf("callback calls = %d, want 2", calls)
	}
	if agent.TotalSteps() != 128 {
		t.Fatalf("TotalSteps = %d, want 128", agent.TotalSteps())
	}
}

func TestPPOConfigValidation(t *testing.T) {
	env := newTargetEnv(1, 1)
	bad := []func(c *PPOConfig){
		func(c *PPOConfig) { c.NSteps = 0 },
		func(c *PPOConfig) { c.BatchSize = 0 },
		func(c *PPOConfig) { c.BatchSize = c.NSteps + 1 },
		func(c *PPOConfig) { c.NEpochs = 0 },
		func(c *PPOConfig) { c.Gamma = 1.5 },
		func(c *PPOConfig) { c.Lambda = -0.1 },
		func(c *PPOConfig) { c.ClipRange = 0 },
		func(c *PPOConfig) { c.LR = 0 },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			cfg := DefaultPPOConfig()
			mutate(&cfg)
			NewPPO(env, cfg)
		}()
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := NewGaussianPolicy(rng, 4, 3, 16, 16)
	p.LogStd[1] = -0.7
	obs := []float64{0.2, -0.1, 0.9, 0.0}
	wantMean := p.MeanAction(obs)
	wantVal := p.Value(obs)

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var q GaussianPolicy
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	gotMean := q.MeanAction(obs)
	for i := range wantMean {
		if math.Abs(gotMean[i]-wantMean[i]) > 1e-12 {
			t.Fatal("mean action changed after round trip")
		}
	}
	if math.Abs(q.Value(obs)-wantVal) > 1e-12 {
		t.Fatal("value changed after round trip")
	}
	if q.LogStd[1] != -0.7 {
		t.Fatal("log std not preserved")
	}
}

func TestPolicyJSONCorrupt(t *testing.T) {
	var p GaussianPolicy
	if err := json.Unmarshal([]byte(`{"log_std":[]}`), &p); err == nil {
		t.Fatal("expected error for empty log_std")
	}
	if err := json.Unmarshal([]byte(`garbage`), &p); err == nil {
		t.Fatal("expected error for garbage")
	}
}

func TestRolloutBufferOverflowPanics(t *testing.T) {
	b := newRolloutBuffer(1, 0, 0)
	b.add(transition{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	b.add(transition{})
}

// Property: log-prob is maximized at the mean action.
func TestPropertyLogProbPeaksAtMean(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	p := NewGaussianPolicy(rng, 2, 2, 8)
	f := func(o1, o2, d1, d2 int8) bool {
		obs := []float64{float64(o1) / 128, float64(o2) / 128}
		mean := p.MeanAction(obs)
		atMean := p.LogProb(obs, mean)
		off := []float64{mean[0] + float64(d1)/64, mean[1] + float64(d2)/64}
		return p.LogProb(obs, off) <= atMean+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
