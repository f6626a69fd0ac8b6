package nn

import "fmt"

// Workspace holds the preallocated per-layer scratch for the batched
// MLP kernels: the activation matrices ForwardBatch fills and the
// gradient matrices BackwardBatch consumes. It is owned by
// the caller and reused across minibatches, so steady-state batched
// forward/backward passes allocate nothing.
//
// Ownership and concurrency: a Workspace belongs to exactly one
// goroutine. ForwardBatch only reads the MLP it runs, so one MLP may be
// shared by concurrent ForwardBatch calls as long as each goroutine
// drives its own Workspace. BackwardBatch accumulates into the MLP's
// gradient buffers and must not run concurrently with anything else on
// the same MLP.
type Workspace struct {
	sizes []int
	batch int // row capacity

	// acts[0] is the input matrix; acts[l+1] is layer l's post-activation
	// output. grads[i] is dL/d(acts[i]) during BackwardBatch; grads[0]
	// is never written, since BackwardBatch computes no input gradient.
	// Both are views whose Rows field tracks the current batch size;
	// the full backing arrays are retained separately so shrinking and
	// regrowing the view never reallocates.
	acts, grads         []*Mat
	actsFull, gradsFull [][]float64
}

// NewWorkspace allocates scratch for running m on minibatches of up to
// batch samples.
func NewWorkspace(m *MLP, batch int) *Workspace {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: workspace batch %d must be positive", batch))
	}
	n := len(m.Sizes)
	w := &Workspace{
		sizes:     append([]int(nil), m.Sizes...),
		batch:     batch,
		acts:      make([]*Mat, n),
		grads:     make([]*Mat, n),
		actsFull:  make([][]float64, n),
		gradsFull: make([][]float64, n),
	}
	for i, s := range m.Sizes {
		w.actsFull[i] = make([]float64, batch*s)
		w.acts[i] = &Mat{Rows: batch, Cols: s, Data: w.actsFull[i]}
		w.gradsFull[i] = make([]float64, batch*s)
		w.grads[i] = &Mat{Rows: batch, Cols: s, Data: w.gradsFull[i]}
	}
	return w
}

// Input resizes every view to rows samples (1 ≤ rows ≤ the batch given
// to NewWorkspace) and returns the input matrix for the caller to fill
// before ForwardBatch.
// Resizing only adjusts slice headers; nothing is allocated.
func (w *Workspace) Input(rows int) *Mat {
	if rows <= 0 || rows > w.batch {
		panic(fmt.Sprintf("nn: workspace batch %d outside [1,%d]", rows, w.batch))
	}
	for i, s := range w.sizes {
		w.acts[i].Rows = rows
		w.acts[i].Data = w.actsFull[i][:rows*s]
		w.grads[i].Rows = rows
		w.grads[i].Data = w.gradsFull[i][:rows*s]
	}
	return w.acts[0]
}

// Output returns the network output written by the last ForwardBatch.
func (w *Workspace) Output() *Mat { return w.acts[len(w.acts)-1] }

// OutputGrad returns the dL/doutput matrix the caller fills between
// ForwardBatch and BackwardBatch. Every entry is caller-owned: fill all
// rows × OutputSize values.
func (w *Workspace) OutputGrad() *Mat { return w.grads[len(w.grads)-1] }

// mustMatch panics when the workspace was built for a different layer
// layout than m.
func (w *Workspace) mustMatch(m *MLP) {
	if len(w.sizes) != len(m.Sizes) {
		panic(fmt.Sprintf("nn: workspace layout %v does not match MLP %v", w.sizes, m.Sizes))
	}
	for i, s := range w.sizes {
		if m.Sizes[i] != s {
			panic(fmt.Sprintf("nn: workspace layout %v does not match MLP %v", w.sizes, m.Sizes))
		}
	}
}

// ForwardBatch runs the network on every row of the workspace's input
// matrix (filled by the caller after Input) and returns the output
// matrix view. Each row is computed with the exact per-sample dot
// products and bias/activation application order of Forward, so the
// batch output is bit-identical to calling Forward once per row.
// ForwardBatch does not touch the MLP's single-sample caches or any
// other MLP state — it is a read-only pass over the parameters.
//
//repro:noalloc
func (m *MLP) ForwardBatch(w *Workspace) *Mat {
	w.mustMatch(m)
	last := len(m.Weights) - 1
	for l, wt := range m.Weights {
		x, z := w.acts[l], w.acts[l+1]
		wt.MulMatT(x, z)
		bias := m.Biases[l]
		for b := 0; b < z.Rows; b++ {
			row := z.Row(b)
			for i := range row {
				row[i] += bias[i]
				if l != last {
					row[i] = m.Act.apply(row[i])
				}
			}
		}
	}
	return w.Output()
}

// BackwardBatch accumulates parameter gradients for the most recent
// ForwardBatch on the same workspace, reading dL/doutput from
// w.OutputGrad() (which the caller fills). Gradients accumulate into
// the MLP until ZeroGrad, exactly like Backward. Every gradient entry
// receives its per-sample terms in row order, as B sequential
// Forward+Backward calls would apply them, so the accumulated gradients
// are bit-identical to the per-sample path however the kernels tile
// the batch. It stops at layer 0's parameters: the input gradient is
// not computed (single-sample Backward still returns it).
//
//repro:noalloc
func (m *MLP) BackwardBatch(w *Workspace) {
	w.mustMatch(m)
	last := len(m.Weights) - 1
	for l := last; l >= 0; l-- {
		dZ := w.grads[l+1]
		if l != last {
			// Convert dA (gradient wrt activation output) to dZ.
			out := w.acts[l+1]
			for i := range dZ.Data {
				dZ.Data[i] *= m.Act.derivFromOutput(out.Data[i])
			}
		}
		m.gradW[l].AddOuterBatch(dZ, w.acts[l])
		gb := m.gradB[l]
		for b := 0; b < dZ.Rows; b++ {
			row := dZ.Row(b)
			for i := range row {
				gb[i] += row[i]
			}
		}
		if l > 0 {
			m.Weights[l].MulMat(dZ, w.grads[l])
		}
	}
}
