package solver

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// ErrStalled tags iterative failures that a different start or a float64
// factor may fix — non-convergence within MaxIter, a non-finite residual
// from a poisoned seed, or a float32-factor PCG whose true residual missed
// Tol when the recurrence claimed convergence. The array layer retries these
// once (errors.Is), from zero and/or against a float64 factor; structural
// failures (dimension mismatches, SPD breakdowns, preconditioner
// construction errors) are not tagged, as neither change can fix them.
var ErrStalled = errors.New("iteration stalled")

// Stats reports the outcome of an iterative solve.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖/‖b‖
	Converged  bool
	// Precond is the concrete preconditioner the solve ran with (Auto
	// resolved against the system size).
	Precond PrecondKind
	// Ordering is the symmetric ordering the preconditioner factored under
	// (OrderingNatural for the ordering-invariant kinds; prebuilt Options.M
	// preconditioners report their own).
	Ordering OrderingKind
	// Precision is the concrete storage precision of the preconditioner's
	// factor values (PrecisionFloat64 for the non-factorizing kinds; prebuilt
	// Options.M preconditioners report their own).
	Precision Precision
	// Warm reports whether the solve was seeded with an initial guess.
	Warm bool
	// PrecondBuild is the preconditioner construction cost paid by this
	// solve: zero when Options.M supplied a prebuilt (e.g. assembly-cached)
	// preconditioner. The array layer overwrites it with the cache's build
	// time on the solve that populated the cache.
	PrecondBuild time.Duration
	// PrecondApply accumulates the preconditioner application time across
	// the solve's iterations.
	PrecondApply time.Duration
}

// Options configures the iterative solvers.
type Options struct {
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10·n).
	MaxIter int
	// Restart is the GMRES restart length m (default 60).
	Restart int
	// Workers is the solve's parallelism (default DefaultWorkers): the gang
	// size of the per-call workspace when Work is nil, a cap on the
	// mat-vec's fan-out otherwise, and the worker count OrderingAuto
	// resolves against.
	Workers int
	// Precond selects the preconditioner (default PrecondAuto:
	// block-Jacobi-3 below AutoIC0Threshold DoFs, IC0 at and above it — see
	// PrecondKind.Resolve). The rule is the same whether the call builds its
	// preconditioner for this solve alone or a caller that caches it
	// (array.Assembly) passes it in M.
	Precond PrecondKind
	// Ordering selects the symmetric ordering the factorizing
	// preconditioners (IC0) are built under (default OrderingAuto:
	// multicolor when the system reaches AutoMulticolorMinDoFs and Workers
	// is more than one, natural otherwise — see ResolveOrdering). Ignored
	// when Options.M supplies a prebuilt preconditioner, which carries its
	// own ordering.
	Ordering OrderingKind
	// Precision selects the storage precision of the factorizing
	// preconditioners' values (default PrecisionAuto: float32 — see
	// Precision).
	// Ignored when Options.M supplies a prebuilt preconditioner, which
	// carries its own precision.
	Precision Precision
	// M optionally supplies a prebuilt preconditioner — e.g. one cached on
	// an array.Assembly — and skips construction (Stats.PrecondBuild stays
	// zero). Precond should name the concrete kind M was built as; it is
	// resolved and recorded in Stats either way. Runtime-only: never
	// serialized.
	M Preconditioner
	// Work optionally supplies a reusable Workspace (pooled work vectors,
	// resident parallel gang). The returned solution vector is then owned
	// by the workspace and valid only until its next solve — copy it to
	// retain it. nil builds a per-call workspace whose gang of Workers is
	// closed before the solve returns. Runtime-only: never serialized.
	Work *Workspace
}

// DefaultWorkers is the package-wide worker-count default applied wherever
// an Options.Workers (or EngineOptions.Workers) travels zero: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// normWorkers applies the package-wide worker-count default (DefaultWorkers)
// so that every matrix-vector product — including the out-of-band
// true-residual checks — agrees with Options.withDefaults.
func normWorkers(w int) int {
	if w <= 0 {
		return DefaultWorkers()
	}
	return w
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
	}
	if o.Restart <= 0 {
		o.Restart = 60
	}
	o.Workers = normWorkers(o.Workers)
	return o
}

// krylovPrecond is the preconditioner side of one PCG or GMRES solve: the
// preconditioner, its pooled application when it has one, and the
// workspace whose gang drives both it and the mat-vec.
type krylovPrecond struct {
	m  Preconditioner
	wa parApplier
	ws *Workspace
	// own marks a per-call workspace, which done closes.
	own bool
}

// setupKrylov is the preamble PCG and GMRES share, so the Auto policies
// resolve in one place. It resolves the preconditioner kind (Resolve) and
// the ordering at opt.Workers (ResolveOrdering), builds M unless opt.M
// supplies it (timed into Stats.PrecondBuild), records the
// kind, ordering, precision and warm start in Stats, and borrows opt.Work —
// or opens a per-call workspace of opt.Workers — with the mat-vec bound to
// a. opt must already carry its defaults (withDefaults).
func setupKrylov(a *sparse.BCSR, warm bool, opt Options) (krylovPrecond, Stats, error) {
	kind := opt.Precond.Resolve(a.NRows)
	st := Stats{Precond: kind, Warm: warm}
	m := opt.M
	if m == nil {
		t0 := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		var err error
		m, err = NewPreconditioner(kind, ResolveOrdering(opt.Ordering, a.NRows, opt.Workers), opt.Precision, a)
		if err != nil {
			return krylovPrecond{}, st, err
		}
		st.PrecondBuild = time.Since(t0)
	}
	st.Ordering, st.Precision = orderingOf(m), precisionOf(m)
	kp := krylovPrecond{m: m, ws: opt.Work}
	if kp.ws == nil {
		kp.ws, kp.own = NewWorkspace(opt.Workers), true
	}
	kp.ws.reset()
	kp.ws.prepMatVec(a, opt.Workers)
	kp.wa, _ = m.(parApplier)
	return kp, st, nil
}

// done closes the per-call workspace setupKrylov opened; a borrowed
// Options.Work stays open.
func (kp *krylovPrecond) done() {
	if kp.own {
		kp.ws.Close()
	}
}

// apply computes dst = M⁻¹·src — through the workspace's gang when the
// preconditioner parallelizes — and adds its wall time to st.PrecondApply.
//
//stressvet:noalloc
func (kp *krylovPrecond) apply(dst, src []float64, st *Stats) {
	t0 := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	if kp.wa != nil {
		kp.wa.applyPar(dst, src, kp.ws)
	} else {
		kp.m.Apply(dst, src)
	}
	st.PrecondApply += time.Since(t0)
}

// GMRES solves a·x = b, with a held as 3×3 tiles, by right-preconditioned
// restarted GMRES(m) using modified Gram–Schmidt orthogonalization and Givens
// rotations. This is the global-stage solver recommended by the paper
// (§4.3). It builds the Krylov
// space of A·M⁻¹ and updates x by M⁻¹ of its least-squares combination, so
// the residual the Arnoldi recurrence minimizes is the true b−A·x: the inner
// convergence test needs no rescaling and a cycle runs until the true
// residual estimate meets Tol (Saad, Iterative Methods for Sparse Linear
// Systems, §9.3.2). The preconditioner comes from Options.M when prebuilt or
// is constructed from Options.Precond (default PrecondAuto); x0 optionally
// seeds the iteration and may be nil. Like PCG, GMRES draws its work vectors,
// Krylov basis, and Hessenberg from Options.Work when supplied (the returned
// solution then aliases workspace memory; otherwise a per-call workspace with
// its own gang is closed on return) and drives level-scheduled
// preconditioners through the workspace's resident gang. Basis vectors are
// taken lazily, as the Arnoldi step first reaches them, so a solve whose
// longest cycle runs k ≪ m iterations holds at most k+1 of them, not m+1.
func GMRES(a *sparse.BCSR, b, x0 []float64, opt Options) ([]float64, Stats, error) {
	n := a.NRows
	if a.NCols != n || len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: GMRES dimension mismatch: matrix %d×%d, b %d", a.NRows, a.NCols, len(b))
	}
	opt = opt.withDefaults(n)
	m := opt.Restart
	if m > n {
		m = n
	}
	// GMRES needs no extra guard for float32 factors: a rounded factor is
	// still a fixed linear M⁻¹, so right preconditioning stays exact (no
	// flexible variant is needed), and every restart recomputes the true
	// residual b−A·x that the convergence test runs on — a rounded factor
	// can slow convergence but never fake it.
	kp, st, err := setupKrylov(a, x0 != nil, opt)
	if err != nil {
		return nil, st, err
	}
	defer kp.done()
	ws := kp.ws

	x := ws.vec(n)
	if x0 != nil {
		copy(x, x0)
	} else {
		linalg.Zero(x)
	}
	bnorm := linalg.Norm2(b)
	if bnorm == 0 {
		st.Converged = true
		return x, st, nil
	}

	// Hessenberg in Givens-reduced form, then the Krylov basis: v[0] is
	// taken after the fixed scratch and v[k+1] when the Arnoldi step first
	// reaches it, so the take order — and workspace reuse — stays positional.
	h := ws.hessenberg(m+1, m)
	cs := ws.vec(m)
	sn := ws.vec(m)
	g := ws.vec(m + 1)
	w := ws.vec(n)
	r := ws.vec(n)
	pr := ws.vec(n)
	yBuf := ws.vec(m)
	v := make([][]float64, m+1)
	v[0] = ws.vec(n)

	totalIt := 0
	for totalIt < opt.MaxIter {
		// r = b − A·x. Under right preconditioning this is also the residual
		// the Arnoldi recurrence starts from, so no apply is needed here.
		ws.matvec(a, w, x)
		linalg.Sub(r, b, w)
		beta := linalg.Norm2(r)
		res := beta / bnorm
		if res <= opt.Tol {
			st.Iterations, st.Residual, st.Converged = totalIt, res, true
			return x, st, nil
		}
		// A non-finite residual (NaN/Inf seed or restart blow-up) can never
		// converge; fail now instead of burning MaxIter iterations —
		// warm-start callers fall back to a cold solve on this error.
		if math.IsNaN(res) || math.IsInf(res, 0) {
			st.Iterations = totalIt
			return x, st, fmt.Errorf("solver: GMRES residual is non-finite at iteration %d: %w", totalIt, ErrStalled)
		}
		for i := range v[0] {
			v[0][i] = r[i] / beta
		}
		linalg.Zero(g)
		g[0] = beta

		var k int
		for k = 0; k < m && totalIt < opt.MaxIter; k++ {
			totalIt++
			// w = A·M⁻¹·v[k]
			kp.apply(pr, v[k], &st)
			ws.matvec(a, w, pr)
			// Modified Gram–Schmidt.
			for j := 0; j <= k; j++ {
				hjk := linalg.Dot(w, v[j])
				h.Set(j, k, hjk)
				linalg.Axpy(-hjk, v[j], w)
			}
			hn := linalg.Norm2(w)
			h.Set(k+1, k, hn)
			if hn > 0 {
				if v[k+1] == nil {
					v[k+1] = ws.vec(n)
				}
				for i := range v[k+1] {
					v[k+1][i] = w[i] / hn
				}
			}
			// Apply accumulated Givens rotations to the new column.
			for j := 0; j < k; j++ {
				t1 := cs[j]*h.At(j, k) + sn[j]*h.At(j+1, k)
				t2 := -sn[j]*h.At(j, k) + cs[j]*h.At(j+1, k)
				h.Set(j, k, t1)
				h.Set(j+1, k, t2)
			}
			// New rotation annihilating h[k+1,k].
			c, s := givens(h.At(k, k), h.At(k+1, k))
			cs[k], sn[k] = c, s
			h.Set(k, k, c*h.At(k, k)+s*h.At(k+1, k))
			h.Set(k+1, k, 0)
			g[k+1] = -s * g[k]
			g[k] = c * g[k]
			// |g[k+1]| is the true residual norm of the cycle's iterate (in
			// exact arithmetic); the restart's true-residual check confirms it.
			if math.Abs(g[k+1])/bnorm <= opt.Tol || hn == 0 {
				k++
				break
			}
		}
		// Solve the k×k triangular system, then x += M⁻¹·(V_k·y) with V_k·y
		// accumulated in r (free until the next restart recomputes it).
		y := yBuf[:k]
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h.At(i, j) * y[j]
			}
			y[i] = s / h.At(i, i)
		}
		linalg.Zero(r)
		for j := 0; j < k; j++ {
			linalg.Axpy(y[j], v[j], r)
		}
		kp.apply(pr, r, &st)
		linalg.Add(x, x, pr)
	}
	ws.matvec(a, w, x)
	linalg.Sub(r, b, w)
	res := linalg.Norm2(r) / bnorm
	st.Iterations, st.Residual = totalIt, res
	if res <= opt.Tol {
		st.Converged = true
		return x, st, nil
	}
	return x, st, fmt.Errorf("solver: GMRES did not converge in %d iterations (residual %g): %w", totalIt, res, ErrStalled)
}

// givens returns the rotation (c, s) with c·a + s·b = r, −s·a + c·b = 0.
//
//stressvet:noalloc
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t
}
