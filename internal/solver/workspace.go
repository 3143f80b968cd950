package solver

import (
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Workspace pools the state an iterative solve reuses across calls: the work
// vectors, the GMRES Hessenberg, the pooled 3×3-tiled matrix-vector op with
// its tile-balanced block-row partition, the triangular-solve scratch, and
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

	// The pooled mat-vec binding: prepMatVec fills it when the gang fans
	// out; otherwise matvec runs the serial tiled kernel.
	bmv       sparse.BlockMatVec
	bmvBounds []int32
	bmvReady  bool
	tri       sparse.TriScratch
	btri      sparse.BlockTriScratch
	// permBuf is the scratch of permuted preconditioner applications
	// (ic0 under a non-natural ordering). A dedicated field rather than a
	// vec(): applyPar runs once per iteration, and the vec free-list is
	// consumed positionally per solve.
	permBuf []float64

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
	w.bmvReady = false
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

// permScratch returns the length-n permute buffer, growing it at most once
// per size increase (steady-state solves reuse one backing array, so the
// zero-allocation contract extends to permuted preconditioners).
func (w *Workspace) permScratch(n int) []float64 {
	if cap(w.permBuf) < n {
		w.permBuf = make([]float64, n)
	}
	return w.permBuf[:n]
}

// prepMatVec binds the matrix-vector product to a for the duration of a
// solve: the block-row partition, weighted by tile count (the blocked work
// profile), is computed once here and reused by every matvec call of the
// solve.
func (w *Workspace) prepMatVec(a *sparse.BCSR, workers int) {
	w.bmvReady = false
	if w.pool == nil || workers <= 1 || a.NRows < sparse.MinParRows {
		return // matvec runs the serial kernel
	}
	if pw := w.pool.Workers(); workers > pw {
		workers = pw
	}
	w.bmvBounds = sparse.PartitionByWorkInto(w.bmvBounds, a.BRowPtr, 0, a.NBRows(), workers)
	w.bmv.M = a
	w.bmvReady = true
}

// matvec computes dst = a·x on the pooled binding when prepMatVec installed
// one for a, and with the serial tiled kernel otherwise (no gang, one
// worker, or a system under sparse.MinParRows). Allocation-free.
//
//stressvet:noalloc
func (w *Workspace) matvec(a *sparse.BCSR, dst, x []float64) {
	if w.bmvReady && w.bmv.M == a {
		w.bmv.Dst, w.bmv.X = dst, x
		w.pool.Run(w.bmvBounds, &w.bmv)
		return
	}
	a.MulVec(dst, x)
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
