package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randSizes draws a random MLP layout: 2–4 layers, widths 1–9.
func randSizes(rng *rand.Rand) []int {
	n := 2 + rng.Intn(3)
	sizes := make([]int, n+1)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(9)
	}
	return sizes
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestForwardBatchBitIdentical is the batched==per-sample forward
// property: across random shapes, seeds, activations and batch sizes,
// ForwardBatch must reproduce B single-sample Forward calls bit for
// bit (exact float equality — the invariant the executor-equivalence
// CI gates depend on).
func TestForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		act := Tanh
		if trial%2 == 1 {
			act = ReLU
		}
		m := NewMLP(rng, act, randSizes(rng)...)
		batch := 1 + rng.Intn(9)
		xs := make([][]float64, batch)
		for b := range xs {
			xs[b] = randVec(rng, m.InputSize())
		}

		// Per-sample reference.
		want := make([][]float64, batch)
		for b, x := range xs {
			want[b] = append([]float64(nil), m.Forward(x)...)
		}

		ws := NewWorkspace(m, batch)
		in := ws.Input(batch)
		for b, x := range xs {
			copy(in.Row(b), x)
		}
		got := m.ForwardBatch(ws)
		for b := range xs {
			for i, w := range want[b] {
				if got.At(b, i) != w {
					t.Fatalf("trial %d sizes %v batch %d: output[%d][%d] = %g, want %g (bit-exact)",
						trial, m.Sizes, batch, b, i, got.At(b, i), w)
				}
			}
		}
	}
}

// TestBackwardBatchBitIdentical is the batched==per-sample backward
// property: accumulated weight and bias gradients from one
// BackwardBatch must be bit-identical to B sequential Forward+Backward
// calls in row order.
func TestBackwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 50; trial++ {
		act := Tanh
		if trial%2 == 1 {
			act = ReLU
		}
		m := NewMLP(rng, act, randSizes(rng)...)
		batch := 1 + rng.Intn(9)
		xs := make([][]float64, batch)
		douts := make([][]float64, batch)
		for b := range xs {
			xs[b] = randVec(rng, m.InputSize())
			douts[b] = randVec(rng, m.OutputSize())
		}

		// Per-sample reference: accumulate gradients sample by sample.
		m.ZeroGrad()
		for b := range xs {
			m.Forward(xs[b])
			m.Backward(douts[b])
		}
		_, grads := m.Params()
		wantGrads := make([][]float64, len(grads))
		for i, g := range grads {
			wantGrads[i] = append([]float64(nil), g...)
		}

		// Batched path on the same network.
		m.ZeroGrad()
		ws := NewWorkspace(m, batch)
		in := ws.Input(batch)
		for b, x := range xs {
			copy(in.Row(b), x)
		}
		m.ForwardBatch(ws)
		dOut := ws.OutputGrad()
		for b, d := range douts {
			copy(dOut.Row(b), d)
		}
		m.BackwardBatch(ws)

		for i, want := range wantGrads {
			for j, w := range want {
				if math.Float64bits(grads[i][j]) != math.Float64bits(w) {
					t.Fatalf("trial %d sizes %v batch %d: grad[%d][%d] = %g, want %g (bit-exact)",
						trial, m.Sizes, batch, i, j, grads[i][j], w)
				}
			}
		}
	}
}

// TestWorkspaceReuseAcrossBatchSizes reuses one workspace for shrinking
// and regrowing minibatches (the PPO tail-batch pattern) and checks the
// results stay bit-identical to per-sample calls.
func TestWorkspaceReuseAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	m := NewMLP(rng, Tanh, 4, 8, 3)
	ws := NewWorkspace(m, 6)
	for _, batch := range []int{6, 2, 5, 1, 6} {
		xs := make([][]float64, batch)
		in := ws.Input(batch)
		for b := range xs {
			xs[b] = randVec(rng, 4)
			copy(in.Row(b), xs[b])
		}
		got := m.ForwardBatch(ws)
		if got.Rows != batch {
			t.Fatalf("output rows %d, want %d", got.Rows, batch)
		}
		for b, x := range xs {
			want := m.Forward(x)
			for i, w := range want {
				if got.At(b, i) != w {
					t.Fatalf("batch %d row %d: %g != %g", batch, b, got.At(b, i), w)
				}
			}
		}
	}
}

func TestWorkspaceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, Tanh, 3, 5, 2)
	other := NewMLP(rng, Tanh, 3, 6, 2)
	ws := NewWorkspace(m, 4)
	for i, fn := range []func(){
		func() { NewWorkspace(m, 0) },
		func() { ws.Input(0) },
		func() { ws.Input(5) },
		func() { other.ForwardBatch(ws) },
		func() { other.BackwardBatch(ws) },
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

// TestBatchKernelsMatchVectorForms pins the batched matrix kernels to
// their single-vector counterparts bit for bit. Shapes reach every
// remainder of the register tiles (rows and cols 1–70, batch 1–65).
// About a fifth of the gradient entries are zero, and some whole
// gradient rows are zero, as PPO's clipped samples make them; those
// samples carry ±Inf/NaN inputs, and weight rows whose gradient column
// is all zero carry them too, so a kernel that stops skipping zero
// gradients turns a result into NaN. The accumulated matrix starts with
// -0 entries, which a +0 term that should have been skipped would turn
// into +0.
func TestBatchKernelsMatchVectorForms(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	poison := func() float64 { return nonFinite[rng.Intn(len(nonFinite))] }
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 300; trial++ {
		rows, cols, batch := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(65)
		w := NewMat(rows, cols)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		x := NewMat(batch, cols)
		g := NewMat(batch, rows)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range g.Data {
			if rng.Intn(5) != 0 {
				g.Data[i] = rng.NormFloat64()
			}
		}
		for b := 0; b < batch; b++ {
			if rng.Intn(6) == 0 { // a clipped sample: no gradient at all
				clear(g.Row(b))
				x.Set(b, rng.Intn(cols), poison())
			}
		}
		if rng.Intn(2) == 0 { // a weight row no sample's gradient reaches
			r := rng.Intn(rows)
			for b := 0; b < batch; b++ {
				g.Set(b, r, 0)
			}
			w.Set(r, rng.Intn(cols), poison())
		}
		acc := NewMat(rows, cols)
		for i := range acc.Data {
			if rng.Intn(4) == 0 {
				acc.Data[i] = math.Copysign(0, -1)
			} else {
				acc.Data[i] = rng.NormFloat64()
			}
		}
		ref := acc.Clone()

		// The outputs start as NaN: a kernel must overwrite every entry.
		fwd := NewMat(batch, rows)
		bwd := NewMat(batch, cols)
		for _, out := range []*Mat{fwd, bwd} {
			for i := range out.Data {
				out.Data[i] = math.NaN()
			}
		}
		w.MulMatT(x, fwd)
		w.MulMat(g, bwd)
		acc.AddOuterBatch(g, x)

		for b := 0; b < batch; b++ {
			for i, v := range w.MulVec(x.Row(b)) {
				if !same(fwd.At(b, i), v) {
					t.Fatalf("trial %d: MulMatT row %d col %d: %g != %g", trial, b, i, fwd.At(b, i), v)
				}
			}
			for i, v := range w.MulVecT(g.Row(b)) {
				if !same(bwd.At(b, i), v) {
					t.Fatalf("trial %d %dx%d batch %d: MulMat row %d col %d: %g != %g",
						trial, rows, cols, batch, b, i, bwd.At(b, i), v)
				}
			}
			ref.AddOuter(g.Row(b), x.Row(b))
		}
		for i := range ref.Data {
			if !same(acc.Data[i], ref.Data[i]) {
				t.Fatalf("trial %d %dx%d batch %d: AddOuterBatch entry %d: %g != %g",
					trial, rows, cols, batch, i, acc.Data[i], ref.Data[i])
			}
		}
	}
}

// TestSteadyStateZeroAllocs is the allocation gate from the issue:
// after warmup, single-sample Forward/Backward and the batched
// ForwardBatch/BackwardBatch must not allocate at all.
func TestSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, Tanh, 16, 64, 64, 5)
	x := randVec(rng, 16)
	dOut := randVec(rng, 5)
	ws := NewWorkspace(m, 64)
	in := ws.Input(64)
	for b := 0; b < 64; b++ {
		copy(in.Row(b), x)
	}

	if n := testing.AllocsPerRun(100, func() { m.Forward(x) }); n != 0 {
		t.Errorf("Forward allocates %g/op, want 0", n)
	}
	m.Forward(x)
	if n := testing.AllocsPerRun(100, func() { m.Backward(dOut) }); n != 0 {
		t.Errorf("Backward allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.ForwardBatch(ws) }); n != 0 {
		t.Errorf("ForwardBatch allocates %g/op, want 0", n)
	}
	m.ForwardBatch(ws)
	if n := testing.AllocsPerRun(100, func() { m.BackwardBatch(ws) }); n != 0 {
		t.Errorf("BackwardBatch allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ws.Input(32); ws.Input(64) }); n != 0 {
		t.Errorf("Workspace.Input allocates %g/op, want 0", n)
	}
}

// BenchmarkBackwardKernels times the batched kernels on a 64×64 layer
// at PPO's minibatch of 64: the two backward kernels, and the forward
// MulMatT as the throughput they aim for.
func BenchmarkBackwardKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols, batch = 64, 64, 64
	w, x, g := NewMat(rows, cols), NewMat(batch, cols), NewMat(batch, rows)
	for _, m := range []*Mat{w, x, g} {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}
	b.Run("AddOuterBatch", func(b *testing.B) {
		acc := NewMat(rows, cols)
		for i := 0; i < b.N; i++ {
			acc.AddOuterBatch(g, x)
		}
	})
	b.Run("MulMat", func(b *testing.B) {
		out := NewMat(batch, cols)
		for i := 0; i < b.N; i++ {
			w.MulMat(g, out)
		}
	})
	b.Run("MulMatT", func(b *testing.B) {
		out := NewMat(batch, rows)
		for i := 0; i < b.N; i++ {
			w.MulMatT(x, out)
		}
	})
}
