package solver

import (
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Workspace pools the state an iterative solve reuses across calls: the work
// vectors, the GMRES Hessenberg, the pooled 3×3-tiled matrix-vector op with
// its spill slab, the triangular-solve scratch, and
// (optionally) a resident sparse.Pool worker gang — the only parallel
// dispatcher of a solve: every pooled kernel runs on it, and a workspace
// without one runs them serially. With a Workspace in Options.Work and a
// prebuilt preconditioner in Options.M, the PCG hot loop performs zero
// allocations in steady state — no vector makes, no closure per mat-vec, no
// goroutine fan-out (see BenchmarkPCGNoAlloc).
//
// A Workspace serves one solve at a time; it is not safe for concurrent use.
// The solution slice returned by a workspace-backed solve is owned by the
// workspace and is only valid until its next solve — copy it to retain it.
type Workspace struct {
	pool *sparse.Pool

	vecs [][]float64
	used int

	// The mat-vec binding prepMatVec fills: the op, its spill slab (grown
	// at most once per size increase), and whether the gang shares the
	// matrix's stripes.
	bmv    sparse.BlockMatVec
	spill  []float64
	bmvPar bool
	tri    sparse.BlockTriScratch

	h *linalg.Dense // GMRES Hessenberg, reused when the restart length matches
}

// NewWorkspace creates a workspace. workers > 1 starts a resident gang of
// workers−1 goroutines (plus the solving goroutine) so parallel kernels
// dispatch without spawning; Close must be called to release them. workers
// ≤ 1 creates a serial workspace that still pools vectors.
func NewWorkspace(workers int) *Workspace {
	w := &Workspace{}
	if workers > 1 {
		w.pool = sparse.NewPool(workers)
	}
	return w
}

// Close releases the resident worker gang, if any. The workspace remains
// usable afterwards (serially).
func (w *Workspace) Close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

// reset starts a new solve: every pooled vector returns to the free list and
// the mat-vec binding is cleared.
func (w *Workspace) reset() {
	w.used = 0
	w.bmvPar = false
	w.bmv = sparse.BlockMatVec{}
}

// vec returns a length-n scratch vector with unspecified contents (callers
// initialize). Vectors are handed out in call order, so a solver's fixed
// take sequence reuses the same backing arrays every solve.
func (w *Workspace) vec(n int) []float64 {
	if w.used < len(w.vecs) && cap(w.vecs[w.used]) >= n {
		v := w.vecs[w.used][:n]
		w.used++
		return v
	}
	v := make([]float64, n)
	if w.used < len(w.vecs) {
		w.vecs[w.used] = v
	} else {
		w.vecs = append(w.vecs, v)
	}
	w.used++
	return v
}

// prepMatVec binds the matrix-vector product to a for the duration of a
// solve: the op and its spill slab are set once here and reused by every
// matvec call of the solve. The gang shares a's stripes when the solve runs
// parallel kernels (workers > 1) on a system of at least sparse.MinParRows.
func (w *Workspace) prepMatVec(a *sparse.BCSR, workers int) {
	n := a.SpillLen()
	if cap(w.spill) < n {
		w.spill = make([]float64, n)
	}
	w.bmv = sparse.BlockMatVec{M: a, Spill: w.spill[:n]}
	w.bmvPar = w.pool != nil && workers > 1 && a.NRows >= sparse.MinParRows
}

// matvec computes dst = a·x on the binding prepMatVec installed for a: the
// gang runs the stripes when bmvPar is set, the calling goroutine runs them
// in order otherwise, and either way the spill slabs fold in stripe order,
// so the product is bitwise the same. Allocation-free.
//
//stressvet:noalloc
func (w *Workspace) matvec(a *sparse.BCSR, dst, x []float64) {
	if w.bmv.M != a {
		a.MulVec(dst, x)
		return
	}
	w.bmv.Dst, w.bmv.X = dst, x
	if w.bmvPar {
		w.pool.Run(a.Stripes(), &w.bmv)
	} else {
		w.bmv.RunRange(0, a.NBRows())
	}
	w.bmv.Fold()
}

// Apply computes dst = M⁻¹·r as a solve that borrows the workspace applies
// it: through the workspace's gang when m parallelizes, with m.Apply
// otherwise. dst and r must not alias.
func (w *Workspace) Apply(m Preconditioner, dst, r []float64) {
	if pa, ok := m.(parApplier); ok {
		pa.applyPar(dst, r, w)
		return
	}
	m.Apply(dst, r)
}

// hessenberg returns a pooled (rows × cols) dense matrix for GMRES.
func (w *Workspace) hessenberg(rows, cols int) *linalg.Dense {
	if w.h == nil || w.h.Rows != rows || w.h.Cols != cols {
		w.h = linalg.NewDense(rows, cols)
		return w.h
	}
	linalg.Zero(w.h.Data)
	return w.h
}
