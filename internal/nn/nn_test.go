package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatAtSet(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At = %g", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("fresh matrix should be zero")
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	// [[1,2,3],[4,5,6]] · [1,1,1] = [6,15]
	for c := 0; c < 3; c++ {
		m.Set(0, c, float64(c+1))
		m.Set(1, c, float64(c+4))
	}
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

// naiveMulVec is the one-row-at-a-time product MulVecInto computed
// before it was blocked four rows per pass, kept as its specification.
func naiveMulVec(m *Mat, x, out []float64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		s := 0.0
		for c, w := range row {
			s += w * x[c]
		}
		out[r] = s
	}
}

// TestMulVecIntoMatchesNaive checks the row-blocked kernel bit for bit
// against the naive loop for every Rows%4 tail and Cols from 1 to 70,
// with entries spread over many magnitudes so rounding order matters.
func TestMulVecIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	val := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)) }
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 65, 66, 67} {
		for cols := 1; cols <= 70; cols++ {
			m := NewMat(rows, cols)
			for i := range m.Data {
				m.Data[i] = val()
			}
			x := make([]float64, cols)
			for i := range x {
				x[i] = val()
			}
			got, want := make([]float64, rows), make([]float64, rows)
			m.MulVecInto(x, got)
			naiveMulVec(m, x, want)
			for r := range want {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%dx%d row %d: %v, naive %v", rows, cols, r, got[r], want[r])
				}
			}
		}
	}
}

func TestMatMulVecT(t *testing.T) {
	m := NewMat(2, 3)
	for c := 0; c < 3; c++ {
		m.Set(0, c, float64(c+1))
		m.Set(1, c, float64(c+4))
	}
	// mᵀ · [1,1] = [5,7,9]
	got := m.MulVecT([]float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", got, want)
		}
	}
}

func TestMatAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	if m.At(0, 0) != 3 || m.At(0, 1) != 4 || m.At(1, 0) != 6 || m.At(1, 1) != 8 {
		t.Fatalf("AddOuter wrong: %v", m.Data)
	}
}

func TestMatDimMismatchPanics(t *testing.T) {
	m := NewMat(2, 3)
	for i, fn := range []func(){
		func() { m.MulVec([]float64{1}) },
		func() { m.MulVecT([]float64{1}) },
		func() { m.AddOuter([]float64{1}, []float64{1, 2, 3}) },
		func() { NewMat(0, 1) },
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

func TestMLPForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, Tanh, 4, 8, 3)
	out := m.Forward([]float64{1, 0, -1, 0.5})
	if len(out) != 3 {
		t.Fatalf("output dim = %d, want 3", len(out))
	}
	if m.InputSize() != 4 || m.OutputSize() != 3 {
		t.Fatal("size accessors wrong")
	}
}

func TestMLPDeterministicForward(t *testing.T) {
	a := NewMLP(rand.New(rand.NewSource(7)), Tanh, 3, 5, 2)
	b := NewMLP(rand.New(rand.NewSource(7)), Tanh, 3, 5, 2)
	x := []float64{0.3, -0.2, 0.9}
	oa, ob := a.Forward(x), b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed should give identical networks")
		}
	}
}

// numericalGrad estimates dL/dp for a scalar loss by central differences.
func numericalGrad(m *MLP, x []float64, loss func([]float64) float64, p []float64, i int) float64 {
	const h = 1e-6
	orig := p[i]
	p[i] = orig + h
	lPlus := loss(m.Forward(x))
	p[i] = orig - h
	lMinus := loss(m.Forward(x))
	p[i] = orig
	return (lPlus - lMinus) / (2 * h)
}

// TestMLPGradCheck verifies backprop against numerical differentiation on
// a small network — the canonical correctness test for the substrate
// under PPO.
func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP(rng, Tanh, 3, 6, 4, 2)
	x := []float64{0.5, -1.2, 0.8}
	// Loss: weighted sum of outputs squared -> dL/dout_k = 2*w_k*out_k.
	w := []float64{0.7, -1.3}
	loss := func(out []float64) float64 {
		s := 0.0
		for k, o := range out {
			s += w[k] * o * o
		}
		return s
	}
	out := m.Forward(x)
	dOut := make([]float64, len(out))
	for k := range out {
		dOut[k] = 2 * w[k] * out[k]
	}
	m.ZeroGrad()
	m.Backward(dOut)

	params, grads := m.Params()
	checked := 0
	for pi := range params {
		p, g := params[pi], grads[pi]
		// Check a few entries of each parameter tensor.
		for i := 0; i < len(p); i += 1 + len(p)/5 {
			num := numericalGrad(m, x, loss, p, i)
			if math.Abs(num-g[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("grad mismatch param %d idx %d: analytic %g, numeric %g", pi, i, g[i], num)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestMLPGradCheckReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, ReLU, 2, 5, 1)
	x := []float64{0.9, -0.4}
	loss := func(out []float64) float64 { return out[0] * out[0] }
	out := m.Forward(x)
	m.ZeroGrad()
	m.Backward([]float64{2 * out[0]})
	params, grads := m.Params()
	for pi := range params {
		for i := 0; i < len(params[pi]); i += 3 {
			num := numericalGrad(m, x, loss, params[pi], i)
			if math.Abs(num-grads[pi][i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("ReLU grad mismatch param %d idx %d: %g vs %g", pi, i, grads[pi][i], num)
			}
		}
	}
}

func TestMLPInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, Tanh, 3, 4, 1)
	x := []float64{0.1, 0.2, 0.3}
	out := m.Forward(x)
	m.ZeroGrad()
	dIn := m.Backward([]float64{1})
	// Numerical check of input gradient.
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += h
		xm := append([]float64(nil), x...)
		xm[i] -= h
		// Forward returns a view into reused scratch: read each result
		// into a scalar before the next call overwrites the buffer.
		fp := m.Forward(xp)[0]
		fm := m.Forward(xm)[0]
		num := (fp - fm) / (2 * h)
		if math.Abs(num-dIn[i]) > 1e-5 {
			t.Fatalf("input grad %d: analytic %g numeric %g", i, dIn[i], num)
		}
	}
	_ = out
}

func TestMLPGradAccumulationAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, Tanh, 2, 3, 1)
	x := []float64{1, -1}
	m.Forward(x)
	m.ZeroGrad()
	m.Backward([]float64{1})
	_, grads := m.Params()
	first := append([]float64(nil), grads[0]...)
	m.Forward(x)
	m.Backward([]float64{1})
	for i := range first {
		if math.Abs(grads[0][i]-2*first[i]) > 1e-12 {
			t.Fatal("gradients should accumulate across Backward calls")
		}
	}
	m.ZeroGrad()
	for i := range grads[0] {
		if grads[0][i] != 0 {
			t.Fatal("ZeroGrad should clear gradients")
		}
	}
}

func TestMLPScaleGradsAndNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, Tanh, 2, 3, 1)
	m.Forward([]float64{1, -1})
	m.ZeroGrad()
	m.Backward([]float64{1})
	n1 := m.GradNorm()
	if n1 <= 0 {
		t.Fatal("grad norm should be positive")
	}
	m.ScaleGrads(0.5)
	if math.Abs(m.GradNorm()-0.5*n1) > 1e-12 {
		t.Fatal("ScaleGrads should scale the norm linearly")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (p-3)^2 with Adam; gradient = 2(p-3).
	p := []float64{0.0}
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		g := []float64{2 * (p[0] - 3)}
		opt.Step([][]float64{p}, [][]float64{g})
	}
	if math.Abs(p[0]-3) > 1e-3 {
		t.Fatalf("Adam did not converge: p = %g", p[0])
	}
}

func TestAdamTrainsMLPOnRegression(t *testing.T) {
	// Train a tiny MLP to fit y = x0 - x1. MSE should drop sharply.
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, Tanh, 2, 16, 1)
	opt := NewAdam(0.01)
	mse := func() float64 {
		s := 0.0
		n := 0
		for x0 := -1.0; x0 <= 1.0; x0 += 0.25 {
			for x1 := -1.0; x1 <= 1.0; x1 += 0.25 {
				out := m.Forward([]float64{x0, x1})
				d := out[0] - (x0 - x1)
				s += d * d
				n++
			}
		}
		return s / float64(n)
	}
	before := mse()
	for epoch := 0; epoch < 300; epoch++ {
		m.ZeroGrad()
		n := 0
		for x0 := -1.0; x0 <= 1.0; x0 += 0.25 {
			for x1 := -1.0; x1 <= 1.0; x1 += 0.25 {
				out := m.Forward([]float64{x0, x1})
				m.Backward([]float64{2 * (out[0] - (x0 - x1))})
				n++
			}
		}
		m.ScaleGrads(1 / float64(n))
		params, grads := m.Params()
		opt.Step(params, grads)
	}
	after := mse()
	if after > before/50 {
		t.Fatalf("training ineffective: MSE %g -> %g", before, after)
	}
}

func TestMLPJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP(rng, Tanh, 4, 8, 3)
	x := []float64{0.1, -0.5, 0.9, 0.0}
	want := append([]float64(nil), m.Forward(x)...)

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m2 MLP
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got := m2.Forward(x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("round trip changed outputs: %v vs %v", got, want)
		}
	}
}

func TestMLPUnmarshalCorrupt(t *testing.T) {
	var m MLP
	if err := json.Unmarshal([]byte(`{"sizes":[3]}`), &m); err == nil {
		t.Fatal("expected error for single-layer model")
	}
	if err := json.Unmarshal([]byte(`{not json`), &m); err == nil {
		t.Fatal("expected error for bad json")
	}
	if err := json.Unmarshal([]byte(`{"sizes":[2,3],"weights":[],"biases":[]}`), &m); err == nil {
		t.Fatal("expected error for missing layers")
	}
}

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, fn := range []func(){
		func() { NewMLP(rng, Tanh, 3) },
		func() { NewMLP(rng, Tanh, 3, 0, 2) },
		func() { NewAdam(0) },
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

// Property: tanh MLP outputs are finite for any bounded input.
func TestPropertyMLPFiniteOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := NewMLP(rng, Tanh, 5, 16, 16, 3)
	f := func(raw [5]int8) bool {
		x := make([]float64, 5)
		for i, r := range raw {
			x[i] = float64(r) / 32.0
		}
		for _, o := range m.Forward(x) {
			if math.IsNaN(o) || math.IsInf(o, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
