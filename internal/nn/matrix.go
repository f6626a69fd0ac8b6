// Package nn implements the neural-network substrate needed for the
// paper's PPO scheduling policy: dense multi-layer perceptrons with tanh
// activations, reverse-mode gradients, the Adam optimizer, and JSON model
// persistence. It replaces the PyTorch stack underneath Stable-Baselines3
// in the original implementation, using only the standard library.
//
// The compute core is batched and allocation-free: Mat.MulMatT /
// Mat.MulMat / Mat.AddOuterBatch process whole minibatches while
// preserving the per-sample accumulation order (batched results are
// bit-identical to the single-vector path), and caller-owned Workspace
// buffers let MLP.ForwardBatch / MLP.BackwardBatch run entire
// minibatches with zero allocations in steady state. A Workspace
// belongs to one goroutine; ForwardBatch never mutates MLP state, so
// one model can serve concurrent forward passes.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r,c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Zero resets all elements to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns row r as a slice view into the matrix (no copy).
func (m *Mat) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// MulVec computes m · x for a vector x of length Cols, writing into a new
// slice of length Rows.
func (m *Mat) MulVec(x []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(x, out)
	return out
}

// MulVecInto is the allocation-free MulVec: it computes m · x into out,
// which must have length Rows. Each element is a dot product accumulated
// over columns in ascending order — the accumulation order every batched
// kernel below preserves, which is what keeps batched and per-sample
// results bit-identical.
//
// Rows are computed four per pass, so each load of x[c] feeds four
// independent accumulators; every row still sums its own products in
// column order, so the blocking changes no bit of the result.
func (m *Mat) MulVecInto(x, out []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("nn: MulVec dim mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	if len(out) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecInto out dim mismatch: %d rows vs %d", m.Rows, len(out)))
	}
	n := len(x)
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		block := m.Data[r*n : (r+4)*n]
		r0, r1, r2, r3 := block[:n], block[n:][:n], block[2*n:][:n], block[3*n:][:n]
		var s0, s1, s2, s3 float64
		for c, xc := range x {
			s0 += r0[c] * xc
			s1 += r1[c] * xc
			s2 += r2[c] * xc
			s3 += r3[c] * xc
		}
		o := out[r : r+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		row := m.Data[r*n : (r+1)*n]
		s := 0.0
		for c, xc := range x {
			s += row[c] * xc
		}
		out[r] = s
	}
}

// MulVecT computes mᵀ · g (used for backpropagating through a dense
// layer): g has length Rows, result has length Cols.
func (m *Mat) MulVecT(g []float64) []float64 {
	out := make([]float64, m.Cols)
	m.MulVecTInto(g, out)
	return out
}

// MulVecTInto is the allocation-free MulVecT: it computes mᵀ · g into
// out (length Cols), zeroing out first and accumulating rows in
// ascending order, skipping zero gradient entries exactly like the
// allocating form.
func (m *Mat) MulVecTInto(g, out []float64) {
	if len(g) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecT dim mismatch: %d rows vs %d", m.Rows, len(g)))
	}
	if len(out) != m.Cols {
		panic(fmt.Sprintf("nn: MulVecTInto out dim mismatch: %d cols vs %d", m.Cols, len(out)))
	}
	for i := range out {
		out[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		gr := g[r]
		if gr == 0 {
			continue
		}
		for c, w := range row {
			out[c] += w * gr
		}
	}
}

// MulMatT computes out = x · mᵀ — the batched form of MulVec, with the
// receiver as the weight matrix: row b of out is m · (row b of x). The
// per-row dot products accumulate over columns in the same order as
// MulVec, so a batch of B rows produces bit-identical results to B
// single-sample calls. Shapes: x is B×Cols, out is B×Rows.
func (m *Mat) MulMatT(x, out *Mat) {
	if x.Cols != m.Cols || out.Cols != m.Rows || out.Rows != x.Rows {
		panic(fmt.Sprintf("nn: MulMatT shape mismatch: %dx%d · (%dx%d)ᵀ -> %dx%d",
			x.Rows, x.Cols, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	for b := 0; b < x.Rows; b++ {
		m.MulVecInto(x.Row(b), out.Row(b))
	}
}

// MulMat computes out = g · m — the batched form of MulVecT, with the
// receiver as the weight matrix: row b of out is mᵀ · (row b of g).
// Shapes: g is B×Rows, out is B×Cols. Accumulation order per row
// matches MulVecT exactly (rows ascending, zero entries skipped).
func (m *Mat) MulMat(g, out *Mat) {
	if g.Cols != m.Rows || out.Cols != m.Cols || out.Rows != g.Rows {
		panic(fmt.Sprintf("nn: MulMat shape mismatch: %dx%d · %dx%d -> %dx%d",
			g.Rows, g.Cols, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	for b := 0; b < g.Rows; b++ {
		m.MulVecTInto(g.Row(b), out.Row(b))
	}
}

// AddOuterBatch accumulates Σ_b g[b] ⊗ x[b] into the matrix — the
// batched form of AddOuter for a dense layer's weight gradient over a
// minibatch. Samples are applied in row order, so every matrix entry
// receives its per-sample contributions in exactly the order B separate
// AddOuter calls would apply them: the accumulated gradient is
// bit-identical to the per-sample path. Shapes: g is B×Rows, x is
// B×Cols.
func (m *Mat) AddOuterBatch(g, x *Mat) {
	if g.Cols != m.Rows || x.Cols != m.Cols || g.Rows != x.Rows {
		panic("nn: AddOuterBatch shape mismatch")
	}
	for b := 0; b < g.Rows; b++ {
		m.AddOuter(g.Row(b), x.Row(b))
	}
}

// AddOuter accumulates g ⊗ x into the matrix (gradient of a dense layer's
// weights): m[r][c] += g[r]*x[c].
func (m *Mat) AddOuter(g, x []float64) {
	if len(g) != m.Rows || len(x) != m.Cols {
		panic("nn: AddOuter dim mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		gr := g[r]
		if gr == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c := range row {
			row[c] += gr * x[c]
		}
	}
}

// XavierInit fills the matrix with orthogonal-ish scaled uniform noise
// (Xavier/Glorot): U(-a, a) with a = sqrt(6/(fanIn+fanOut)) * gain.
func (m *Mat) XavierInit(rng *rand.Rand, gain float64) {
	a := gain * math.Sqrt(6.0/float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2*a - a
	}
}

// VecAdd returns a+b elementwise in a new slice.
func VecAdd(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("nn: VecAdd length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
