// Package nn implements the neural-network substrate needed for the
// paper's PPO scheduling policy: dense multi-layer perceptrons with tanh
// activations, reverse-mode gradients, the Adam optimizer, and JSON model
// persistence. It replaces the PyTorch stack underneath Stable-Baselines3
// in the original implementation, using only the standard library.
//
// The compute core is batched and allocation-free: Mat.MulMatT /
// Mat.MulMat / Mat.AddOuterBatch process whole minibatches, and
// caller-owned Workspace buffers let MLP.ForwardBatch /
// MLP.BackwardBatch run entire minibatches with zero allocations in
// steady state. The batched kernels are register-blocked: MulMatT
// computes four weight rows' dot products per pass, and MulMat and
// AddOuterBatch keep each output entry in a register across four
// nonzero gradient terms. The invariant every blocking keeps is the
// per-entry accumulation order: each output or gradient entry takes
// its terms in the order the single-vector form (MulVec, MulVecT,
// AddOuter) applies them, with the same zero-gradient skips and the
// same acc += a*b expression, so batched results are bit-identical to
// the per-sample path on every GOARCH, with or without fused
// multiply-add. MLP.BackwardBatch computes parameter gradients only;
// single-sample MLP.Backward also returns the input gradient. A
// Workspace belongs to one goroutine; ForwardBatch never mutates MLP
// state, so one model can serve concurrent forward passes.
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
// Shapes: g is B×Rows, out is B×Cols.
//
// Row b of out is the sum of the weight rows scaled by the nonzero
// entries of g's row b, in ascending row order, as MulVecT adds them.
// Those terms go through addScaled4 four at a time, so each output
// entry stays in a register across four weight rows instead of being
// loaded and stored once per row. Every entry still starts from zero
// and takes the same terms in the same order, skipping the same zero
// gradient entries, so the result is bit-identical to MulVecT's.
func (m *Mat) MulMat(g, out *Mat) {
	if g.Cols != m.Rows || out.Cols != m.Cols || out.Rows != g.Rows {
		panic(fmt.Sprintf("nn: MulMat shape mismatch: %dx%d · %dx%d -> %dx%d",
			g.Rows, g.Cols, m.Rows, m.Cols, out.Rows, out.Cols))
	}
	for b := 0; b < g.Rows; b++ {
		gb, o := g.Row(b), out.Row(b)
		clear(o)
		var rs [4]int // weight rows of the pending group
		k := 0
		for r, gr := range gb {
			if gr == 0 {
				continue
			}
			rs[k] = r
			if k++; k == len(rs) {
				addScaled4(o, m.Row(rs[0]), m.Row(rs[1]), m.Row(rs[2]), m.Row(rs[3]),
					gb[rs[0]], gb[rs[1]], gb[rs[2]], gb[rs[3]])
				k = 0
			}
		}
		for _, r := range rs[:k] {
			addScaled(o, m.Row(r), gb[r])
		}
	}
}

// AddOuterBatch accumulates Σ_b g[b] ⊗ x[b] into the matrix — the
// batched form of AddOuter for a dense layer's weight gradient over a
// minibatch. Shapes: g is B×Rows, x is B×Cols.
//
// Matrix row r takes the input rows x[b] scaled by the nonzero g[b][r],
// in sample order, as B AddOuter calls add them. Those terms go through
// addScaled4 four samples at a time, so each gradient entry stays in a
// register across four samples instead of being loaded and stored once
// per sample. Every entry still takes the same terms in the same order,
// skipping the same zero gradient entries, so the accumulated gradient
// is bit-identical to B AddOuter calls.
func (m *Mat) AddOuterBatch(g, x *Mat) {
	if g.Cols != m.Rows || x.Cols != m.Cols || g.Rows != x.Rows {
		panic("nn: AddOuterBatch shape mismatch")
	}
	rows := m.Rows
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		var bs [4]int // samples of the pending group
		k := 0
		for b := 0; b < g.Rows; b++ {
			if g.Data[b*rows+r] == 0 {
				continue
			}
			bs[k] = b
			if k++; k == len(bs) {
				addScaled4(row, x.Row(bs[0]), x.Row(bs[1]), x.Row(bs[2]), x.Row(bs[3]),
					g.Data[bs[0]*rows+r], g.Data[bs[1]*rows+r], g.Data[bs[2]*rows+r], g.Data[bs[3]*rows+r])
				k = 0
			}
		}
		for _, b := range bs[:k] {
			addScaled(row, x.Row(b), g.Data[b*rows+r])
		}
	}
}

// addScaled4 adds v0·s0, v1·s1, v2·s2 and v3·s3 to dst, in that order,
// holding each dst entry in a register across the four terms. Each
// step is dst += v*s, the expression MulVecT and AddOuter use (a
// product's operand order changes no bit, fused or not), so four terms
// here equal four successive addScaled calls bit for bit.
func addScaled4(dst, v0, v1, v2, v3 []float64, s0, s1, s2, s3 float64) {
	v0, v1, v2, v3 = v0[:len(dst)], v1[:len(dst)], v2[:len(dst)], v3[:len(dst)]
	for c, a := range dst {
		a += v0[c] * s0
		a += v1[c] * s1
		a += v2[c] * s2
		a += v3[c] * s3
		dst[c] = a
	}
}

// addScaled adds v·s to dst.
func addScaled(dst, v []float64, s float64) {
	v = v[:len(dst)]
	for c := range dst {
		dst[c] += v[c] * s
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
