package solver

import (
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Preconditioner applies z = M⁻¹·r for an iterative solver.
type Preconditioner interface {
	// Apply computes dst = M⁻¹·r. dst and r must not alias.
	Apply(dst, r []float64)
}

// PrecondKind selects the preconditioner of the iterative solvers.
type PrecondKind int

const (
	// PrecondAuto — the zero value, and therefore the default wherever an
	// Options travels unset — picks a preconditioner from the system size
	// and whether the construction amortizes: block-Jacobi-3 for small
	// systems (the natural choice for displacement problems with 3 DoFs
	// per node), IC0 where its ~6× iteration-count savings dominate — at
	// and above AutoIC0Threshold DoFs on the assembly-cached path that
	// builds the factor once per lattice (ResolveAmortized), at and above
	// AutoIC0OneShotThreshold for bare solves that pay the build every
	// call (Resolve).
	PrecondAuto PrecondKind = iota
	// Value 1 is reserved: it was the scalar inverse-diagonal (Jacobi)
	// preconditioner, deleted because every system the solvers take is
	// 3×3-tiled and block-Jacobi-3 matched it within one iteration on every
	// measured lattice. Journals written before the deletion replay it as
	// block-Jacobi-3 (see internal/jobqueue), so the value must never be
	// reused.
	_
	// PrecondBlockJacobi3 inverts the 3×3 diagonal blocks — the natural
	// choice for displacement problems with 3 DoFs per node, which couples
	// the x/y/z components of each node.
	PrecondBlockJacobi3
	// PrecondIC0 is zero-fill incomplete Cholesky — far fewer iterations,
	// with the triangular solves level-scheduled so each application runs
	// across cores (sparse.LowerTri).
	PrecondIC0
	// PrecondNone applies the identity.
	PrecondNone
)

// DefaultAutoIC0Threshold is the hand-measured fallback for the system size
// (DoFs) at and above which PrecondAuto resolves to IC0 *when the
// construction amortizes* — the assembly-cached path
// (array.Assembly.PreconditionerPrec), where the factor is built at most once
// per lattice. Measured with the cached build and the level-scheduled
// apply: once the build amortizes, IC0's ~6× iteration-count reduction wins
// wall time at every measured lattice (28 vs 45 ms at 2 709 DoFs, 482 vs
// 1 364 ms at 21 717 — docs/SOLVER_TUNING.md has the table), so the
// threshold sits just below the smallest measured crossover. The live value
// is AutoIC0Threshold (tunable.go): host-profile tuning may re-derive it
// from that host's own measurements at startup.
const DefaultAutoIC0Threshold = 2500

// AutoIC0OneShotThreshold is the crossover for solves that pay the IC0
// construction every time (bare PCG/GMRES calls with no prebuilt Options.M,
// which build their preconditioner per call): the ~60–600 ms factorization
// only reaches wall-time parity with block-Jacobi-3 around 20k DoFs.
const AutoIC0OneShotThreshold = 20000

// Resolve maps PrecondAuto to the concrete kind chosen for an n-DoF system
// using the one-shot rule (the preconditioner is built for this solve
// alone); concrete kinds resolve to themselves. Callers that amortize the
// construction across solves use ResolveAmortized instead.
func (k PrecondKind) Resolve(n int) PrecondKind {
	return k.resolve(n, AutoIC0OneShotThreshold)
}

// ResolveAmortized maps PrecondAuto to the concrete kind chosen when the
// preconditioner's construction is shared across many solves (the
// assembly-cache path), where IC0 pays off at much smaller systems.
func (k PrecondKind) ResolveAmortized(n int) PrecondKind {
	return k.resolve(n, AutoIC0Threshold())
}

func (k PrecondKind) resolve(n, ic0At int) PrecondKind {
	if k != PrecondAuto {
		return k
	}
	if n >= ic0At {
		return PrecondIC0
	}
	return PrecondBlockJacobi3
}

// String returns the flag/JSON spelling of the kind (see ParsePrecond).
func (k PrecondKind) String() string {
	switch k {
	case PrecondAuto:
		return "auto"
	case PrecondBlockJacobi3:
		return "block-jacobi3"
	case PrecondIC0:
		return "ic0"
	case PrecondNone:
		return "none"
	}
	return fmt.Sprintf("precond(%d)", int(k))
}

// ParsePrecond maps the String spellings (plus "" and the "bj3" shorthand)
// back to a kind; the serve flags and request fields go through here. The
// deleted scalar "jacobi" is an unknown spelling, and the error lists the
// kinds that remain.
func ParsePrecond(s string) (PrecondKind, error) {
	switch s {
	case "", "auto":
		return PrecondAuto, nil
	case "block-jacobi3", "bj3":
		return PrecondBlockJacobi3, nil
	case "ic0":
		return PrecondIC0, nil
	case "none":
		return PrecondNone, nil
	}
	return PrecondAuto, fmt.Errorf("solver: unknown preconditioner %q (want auto, block-jacobi3, ic0, or none)", s)
}

// NewPreconditioner builds the requested preconditioner for the SPD matrix
// a, held as 3×3 tiles, resolving PrecondAuto against the matrix size first
// (the one-shot rule). Every construction in the package funnels through
// here so no solver path hardwires its own preconditioner. For the
// factorizing kinds, ord selects the symmetric ordering — IC0 factors the
// permuted matrix P·A·Pᵀ and applies Pᵀ·(L·Lᵀ)⁻¹·P, so the ordering shapes
// the factor's dependency DAG without changing the preconditioned
// operator's symmetry; OrderingAuto resolves at DefaultWorkers — and prec
// the factor storage precision (see Precision). Block-Jacobi-3 and the
// identity are ordering- and precision-invariant and ignore both.
func NewPreconditioner(kind PrecondKind, ord OrderingKind, prec Precision, a *sparse.BCSR) (Preconditioner, error) {
	switch kind.Resolve(a.NRows) {
	case PrecondBlockJacobi3:
		return newBlockJacobi3(a), nil
	case PrecondIC0:
		return newIC0(a, ord, prec)
	case PrecondNone:
		return identityPrecond{}, nil
	}
	return nil, fmt.Errorf("solver: unknown preconditioner kind %d", kind)
}

// parApplier is implemented by preconditioners whose application
// parallelizes: the solvers drive it with their workspace (resident pool +
// scratch) instead of plain Apply.
type parApplier interface {
	applyPar(dst, r []float64, ws *Workspace)
}

// Sized is implemented by preconditioners whose memory footprint matters to
// byte-budgeted caches (the assembly cache counts them).
type Sized interface {
	MemoryBytes() int64
}

type identityPrecond struct{}

//stressvet:noalloc
func (identityPrecond) Apply(dst, r []float64) { copy(dst, r) }

func (identityPrecond) MemoryBytes() int64 { return 0 }

// blockJacobi3 stores the inverse of each 3×3 diagonal block.
type blockJacobi3 struct {
	inv []float64 // 9 entries per block, row-major
}

func newBlockJacobi3(a *sparse.BCSR) *blockJacobi3 {
	nb := a.NBRows()
	inv := make([]float64, 9*nb)
	var blk [9]float64
	for b := 0; b < nb; b++ {
		if t := a.DiagTile(b); t != nil {
			copy(blk[:], t)
		} else {
			blk = [9]float64{}
		}
		if err := invert3(blk[:], inv[9*b:9*b+9]); err != nil {
			// Identity rows (inactive nodes) or missing diagonal: fall back
			// to scalar Jacobi on this block.
			for k := range blk {
				inv[9*b+k] = 0
			}
			for i := 0; i < 3; i++ {
				d := blk[4*i]
				if d == 0 {
					d = 1
				}
				inv[9*b+4*i] = 1 / d
			}
		}
	}
	return &blockJacobi3{inv: inv}
}

// invert3 inverts a 3×3 matrix via the adjugate; returns an error for a
// (near-)singular block.
func invert3(m, out []float64) error {
	a, b, c := m[0], m[1], m[2]
	d, e, f := m[3], m[4], m[5]
	g, h, i := m[6], m[7], m[8]
	co00 := e*i - f*h
	co01 := f*g - d*i
	co02 := d*h - e*g
	det := a*co00 + b*co01 + c*co02
	scale := math.Abs(a) + math.Abs(e) + math.Abs(i)
	if math.Abs(det) <= 1e-14*scale*scale*scale {
		return fmt.Errorf("solver: singular 3×3 block (det=%g)", det)
	}
	id := 1 / det
	out[0] = co00 * id
	out[1] = (c*h - b*i) * id
	out[2] = (b*f - c*e) * id
	out[3] = co01 * id
	out[4] = (a*i - c*g) * id
	out[5] = (c*d - a*f) * id
	out[6] = co02 * id
	out[7] = (b*g - a*h) * id
	out[8] = (a*e - b*d) * id
	return nil
}

//stressvet:noalloc
func (p *blockJacobi3) Apply(dst, r []float64) {
	nb := len(p.inv) / 9
	for b := 0; b < nb; b++ {
		m := p.inv[9*b : 9*b+9]
		r0, r1, r2 := r[3*b], r[3*b+1], r[3*b+2]
		dst[3*b] = m[0]*r0 + m[1]*r1 + m[2]*r2
		dst[3*b+1] = m[3]*r0 + m[4]*r1 + m[5]*r2
		dst[3*b+2] = m[6]*r0 + m[7]*r1 + m[8]*r2
	}
}

func (p *blockJacobi3) MemoryBytes() int64 { return int64(8 * len(p.inv)) }

// BlockFillMin is the minimum blocked-storage fill ratio (scalar entries per
// stored tile entry, sparse.BlockLowerTri.Fill) at which IC0 commits to the
// 3×3-tiled factor layout. Node-blocked FEM factors sit near 0.9 (only the
// diagonal tiles' zero upper halves are padding); patterns that scatter
// isolated scalars across tiles fall below and keep the scalar layout, where
// zero-fill would inflate factor bytes instead of saving bandwidth. 0.45
// marks the break-even: below it the padded value bytes exceed the ~⅓ index
// bytes the tiles save.
const BlockFillMin = 0.45

// ic0 is a zero-fill incomplete Cholesky factorization: L has the sparsity
// of the lower triangle of (possibly symmetrically permuted) A and
// P·A·Pᵀ ≈ L·Lᵀ. The factor is held either as a scalar sparse.LowerTri or,
// when its tiles are dense enough (BlockFillMin), as a sparse.BlockLowerTri
// — 3×3 tile micro-kernels, optionally float32 values. Either way the
// dependency-level schedules let each application's forward/backward solves
// run rows in parallel — and, because each row (or block row) is computed
// by one shared kernel, the parallel application is bitwise identical to
// the serial one for every worker count. Under a non-natural ordering the
// application is Pᵀ·(L·Lᵀ)⁻¹·P: scatter into permuted order, two triangular
// solves in place, gather back — the permutes are deterministic, so the
// worker-count bitwise contract holds for every ordering. An ic0 is
// immutable after construction and safe to share across concurrent solves.
type ic0 struct {
	// Exactly one of t (scalar factor) and bt (blocked factor) is non-nil.
	t  *sparse.LowerTri
	bt *sparse.BlockLowerTri
	// perm maps original→permuted index (nil for the natural ordering).
	perm []int32
	ord  OrderingKind
	// prec is the concrete storage precision of the factor values
	// (PrecisionFloat32 only on the blocked path).
	prec Precision
}

// newIC0 factors a under the ordering ord (OrderingAuto resolved at
// DefaultWorkers) with factor storage precision prec. The factorization
// runs on the scalar pattern: the tiles are expanded to a transient CSR that
// drops their zero padding, so the factor is the one the scalar matrix
// itself would give.
func newIC0(a *sparse.BCSR, ord OrderingKind, prec Precision) (*ic0, error) {
	return newIC0Layout(a, ord, prec, true)
}

// newIC0Layout is newIC0 with the blocked-layout commit gated: block ==
// false keeps the scalar factor even when the tiles would engage, so the
// equivalence tests can compare the tiled kernels against a scalar factor of
// the same system. Production paths always pass block == true.
func newIC0Layout(a *sparse.BCSR, ord OrderingKind, prec Precision, block bool) (*ic0, error) {
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("solver: IC0 requires a square matrix")
	}
	ord = resolveOrderingOf(ord, a, 0)
	perm := orderingPerm(ord, a)
	if perm == nil {
		ord = OrderingNatural
	}
	csc := a.ToCSR().ToCSC()
	if perm != nil {
		csc = csc.Permute(perm)
	}
	l := csc.LowerTriangle()
	n := l.NCols
	// Column-oriented left-looking IC(0): for each column j, subtract the
	// contributions of earlier columns restricted to the existing pattern.
	colStart := make([]int32, n) // position of the diagonal in each column
	for j := 0; j < n; j++ {
		if l.ColPtr[j] == l.ColPtr[j+1] || l.RowIdx[l.ColPtr[j]] != int32(j) {
			return nil, fmt.Errorf("solver: IC0 missing diagonal at column %d", j)
		}
		colStart[j] = l.ColPtr[j]
	}
	// x is a dense accumulator for the current column.
	x := make([]float64, n)
	// For the left-looking update we need, for each row i, the list of
	// columns j < i with L[i,j] ≠ 0 — build row links incrementally:
	// next[j] walks column j downward as the factorization proceeds.
	next := make([]int32, n)
	for j := 0; j < n; j++ {
		next[j] = l.ColPtr[j] + 1 // first sub-diagonal entry
	}
	// head[i] chains the columns whose next entry has row i.
	head := make([]int32, n)
	link := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	pushCol := func(j int32) {
		if next[j] < l.ColPtr[j+1] {
			i := l.RowIdx[next[j]]
			link[j] = head[i]
			head[i] = j
		}
	}
	for j := 0; j < n; j++ {
		// Scatter column j of the current (partially updated) matrix.
		for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
			x[l.RowIdx[p]] = l.Vals[p]
		}
		// Apply updates from all columns k < j with L[j,k] != 0.
		for k := head[j]; k != -1; {
			nextK := link[k]
			pjk := next[k] // entry L[j,k]
			ljk := l.Vals[pjk]
			// Subtract ljk * column k (rows >= j) on the pattern of col j.
			for p := pjk; p < l.ColPtr[k+1]; p++ {
				x[l.RowIdx[p]] -= ljk * l.Vals[p]
			}
			// Advance column k to its next row and re-chain.
			next[k] = pjk + 1
			pushCol(k)
			k = nextK
		}
		// Pivot.
		d := x[j]
		if d <= 0 {
			// Standard IC0 breakdown remedy: shift to a safe positive value.
			d = math.Abs(d) + 1e-12
		}
		d = math.Sqrt(d)
		l.Vals[colStart[j]] = d
		x[j] = 0
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			i := l.RowIdx[p]
			l.Vals[p] = x[i] / d
			x[i] = 0
		}
		pushCol(int32(j))
	}
	t, err := sparse.NewLowerTriFromCSC(l)
	if err != nil {
		return nil, fmt.Errorf("solver: IC0: %w", err)
	}
	p := &ic0{t: t, perm: perm, ord: ord, prec: PrecisionFloat64}
	// Commit to the 3×3-tiled layout when the tiles are dense enough to pay
	// (reduced global matrices always are; low-fill stencils keep the scalar
	// factor). PrecisionAuto resolves to float32 exactly when blocking
	// engages — the scalar layout keeps float64 storage, so an explicit
	// PrecisionFloat32 request on a low-fill matrix degrades gracefully and
	// Stats report the truth.
	if block {
		single := prec != PrecisionFloat64
		if bt, berr := sparse.NewBlockLowerTri(t, single); berr == nil && bt.Fill() >= BlockFillMin {
			p.bt, p.t = bt, nil
			if single {
				p.prec = PrecisionFloat32
			}
		}
	}
	return p, nil
}

// Apply computes dst = Pᵀ·(L·Lᵀ)⁻¹·P·r with the serial triangular solves —
// the reference the pooled applyPar matches bitwise. The solvers never call
// it: they drive applyPar through their workspace's resident gang. Under a
// non-natural ordering it draws one n-length scatter buffer per call.
//
//stressvet:noalloc
func (p *ic0) Apply(dst, r []float64) { p.applyPar(dst, r, nil) }

// applyPar is Apply dispatched through ws's resident gang and scratch; a nil
// ws runs serially.
//
//stressvet:noalloc
func (p *ic0) applyPar(dst, r []float64, ws *Workspace) {
	var pool *sparse.Pool
	var sc *sparse.TriScratch
	var bsc *sparse.BlockTriScratch
	if ws != nil {
		pool, sc, bsc = ws.pool, &ws.tri, &ws.btri
	}
	if p.perm == nil {
		if p.bt != nil {
			p.bt.SolveLowerPar(dst, r, pool, bsc)
			p.bt.SolveUpperPar(dst, dst, pool, bsc)
			return
		}
		p.t.SolveLowerPar(dst, r, pool, sc)
		p.t.SolveUpperPar(dst, dst, pool, sc)
		return
	}
	// Permuted application: scatter r into factor order, solve both
	// triangles in place, gather back. The scratch comes from the workspace
	// so the steady-state hot loop stays allocation-free (ic0 itself is
	// shared across concurrent solves and must hold no mutable state).
	var buf []float64
	if ws != nil {
		buf = ws.permScratch(len(r)) //stressvet:allow noalloc -- inlined permScratch grows the cached scratch on first use; steady state reuses it
	} else {
		buf = make([]float64, len(r)) //stressvet:allow noalloc -- the serial reference Apply has no workspace; solvers always pass one
	}
	for i, v := range r {
		buf[p.perm[i]] = v
	}
	if p.bt != nil {
		p.bt.SolveLowerPar(buf, buf, pool, bsc)
		p.bt.SolveUpperPar(buf, buf, pool, bsc)
	} else {
		p.t.SolveLowerPar(buf, buf, pool, sc)
		p.t.SolveUpperPar(buf, buf, pool, sc)
	}
	for i := range dst {
		dst[i] = buf[p.perm[i]]
	}
}

// Ordering reports the symmetric ordering the factor was built under
// (implements Ordered).
func (p *ic0) Ordering() OrderingKind { return p.ord }

// Levels reports the factor's forward-schedule shape: dependency-level count
// and widest level in rows (implements FactorLevels; the measurement harness
// and the BENCH snapshot read it). For a blocked factor the count is in
// block levels (block rows advance together) and the width is converted to
// scalar rows so the number stays comparable across layouts.
func (p *ic0) Levels() (count, maxWidth int) {
	if p.bt != nil {
		return p.bt.Fwd.NumLevels(), sparse.BlockSize * p.bt.Fwd.MaxWidth()
	}
	return p.t.Fwd.NumLevels(), p.t.Fwd.MaxWidth()
}

// FactorPrecision reports the concrete storage precision of the factor
// values (implements FactorPrecisioned; PCG keys its true-residual check
// off this).
func (p *ic0) FactorPrecision() Precision { return p.prec }

// Blocked reports whether the factor committed to the 3×3-tiled layout.
func (p *ic0) Blocked() bool { return p.bt != nil }

// MemoryBytes reports the factor's footprint (both triangles + schedules +
// the ordering permutation, when present).
func (p *ic0) MemoryBytes() int64 {
	b := int64(4 * len(p.perm))
	if p.bt != nil {
		return b + p.bt.MemoryBytes()
	}
	return b + p.t.MemoryBytes()
}

// PCG is the preconditioned conjugate gradient for symmetric positive-
// definite systems, with a held as 3×3 tiles. The preconditioner comes from
// Options.M when prebuilt (e.g. assembly-cached) or is constructed from
// Options.Precond (default PrecondAuto, resolved against the system size);
// x0 optionally seeds the iteration (warm start) and may be nil. The returned Stats record the
// resolved preconditioner kind, whether the solve was warm-started, and the
// preconditioner build/apply timings.
//
// The iteration loop is allocation-free: the work vectors come from
// Options.Work (or a per-call workspace with its own resident gang of
// Options.Workers, closed on return, when unset), the mat-vec runs through a
// once-per-solve tile-balanced partition, and a level-scheduled
// preconditioner dispatches through the workspace's gang. With
// Options.Work and Options.M both set, the entire steady-state solve
// performs zero allocations (BenchmarkPCGNoAlloc); the returned solution
// then aliases workspace memory — see Workspace.
func PCG(a *sparse.BCSR, b, x0 []float64, opt Options) ([]float64, Stats, error) {
	n := a.NRows
	if a.NCols != n || len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: PCG dimension mismatch: matrix %d×%d, b %d", a.NRows, a.NCols, len(b))
	}
	opt = opt.withDefaults(n)
	kind := opt.Precond.Resolve(n)
	st := Stats{Precond: kind, Warm: x0 != nil}
	m := opt.M
	if m == nil {
		tBuild := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		var err error
		// The ordering resolves against this solve's worker count: a
		// 1-worker solve keeps the natural factor even on a parallel
		// machine (no fan-out to pay for the coloring's extra iterations).
		m, err = NewPreconditioner(kind, resolveOrderingOf(opt.Ordering, a, opt.Workers), opt.Precision, a)
		if err != nil {
			return nil, st, err
		}
		st.PrecondBuild = time.Since(tBuild)
	}
	st.Ordering = orderingOf(m)
	st.Precision = precisionOf(m)
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace(opt.Workers)
		defer ws.Close()
	}
	ws.reset()
	ws.prepMatVec(a, opt.Workers)
	wa, _ := m.(parApplier)

	x := ws.vec(n)
	if x0 != nil {
		copy(x, x0)
	} else {
		linalg.Zero(x)
	}
	r := ws.vec(n)
	z := ws.vec(n)
	p := ws.vec(n)
	ap := ws.vec(n)

	ws.matvec(a, r, x)
	linalg.Sub(r, b, r)
	bnorm := linalg.Norm2(b)
	if bnorm == 0 {
		st.Converged = true
		return x, st, nil
	}
	tApply := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	if wa != nil {
		wa.applyPar(z, r, ws)
	} else {
		m.Apply(z, r)
	}
	st.PrecondApply += time.Since(tApply)
	copy(p, z)
	rz := linalg.Dot(r, z)

	outcome, it, res, pap := pcgSteady(a, b, m, wa, ws, &st, opt, x, r, z, p, ap, bnorm, rz)
	switch outcome {
	case pcgConverged:
		st.Iterations, st.Residual, st.Converged = it, res, true
		return x, st, nil
	case pcgNonFinite:
		st.Iterations = it
		return x, st, fmt.Errorf("solver: PCG residual is non-finite at iteration %d: %w", it, ErrStalled)
	case pcgBreakdown:
		st.Iterations, st.Residual = it, res
		return x, st, fmt.Errorf("solver: PCG breakdown, pᵀAp=%g (matrix not SPD?)", pap)
	}
	st.Iterations, st.Residual = it, res
	return x, st, fmt.Errorf("solver: PCG did not converge to tol %g in %d iterations (residual %g, %v factor): %w",
		opt.Tol, it, res, st.Precision, ErrStalled)
}

// pcgOutcome is how the steady-state PCG loop ended; PCG translates it into
// the user-facing result so the loop itself never formats errors.
type pcgOutcome uint8

const (
	pcgStalled pcgOutcome = iota
	pcgConverged
	pcgNonFinite
	pcgBreakdown
)

// pcgTrueResidual recomputes res = ‖b−A·x‖/bnorm from scratch, clobbering
// scratch (the ap vector between mat-vecs).
//
//stressvet:noalloc
func pcgTrueResidual(a *sparse.BCSR, ws *Workspace, x, b, scratch []float64, bnorm float64) float64 {
	ws.matvec(a, scratch, x)
	var ss float64
	for i := range b {
		d := b[i] - scratch[i]
		ss += d * d
	}
	return math.Sqrt(ss) / bnorm
}

// pcgSteady is the steady-state PCG iteration: with the workspace and
// preconditioner prebuilt, it performs zero allocations per call
// (BenchmarkPCGNoAlloc pins the runtime contract; stressvet's noalloc rules
// and -escape gate pin it statically).
//
// Under a float32 factor (Stats.Precision) the recurrence residual is not
// trusted on its own: when it claims convergence, the true residual
// ‖b−A·x‖ is recomputed, and if that misses Tol the loop ends as
// pcgStalled, so the error wraps ErrStalled and the array layer retries
// once against a float64 factor.
//
//stressvet:noalloc
func pcgSteady(a *sparse.BCSR, b []float64, m Preconditioner, wa parApplier, ws *Workspace, st *Stats, opt Options, x, r, z, p, ap []float64, bnorm, rz float64) (outcome pcgOutcome, it int, res, pap float64) {
	verify := st.Precision == PrecisionFloat32
	for it = 0; it < opt.MaxIter; it++ {
		res = linalg.Norm2(r) / bnorm
		if res <= opt.Tol {
			if !verify {
				return pcgConverged, it, res, 0
			}
			// The recurrence claims convergence on a rounded factor: trust
			// only the true residual.
			if res = pcgTrueResidual(a, ws, x, b, ap, bnorm); res <= opt.Tol {
				return pcgConverged, it, res, 0
			}
			return pcgStalled, it, res, 0
		}
		// A non-finite residual (NaN/Inf seed or mid-iteration blow-up) can
		// never converge; fail now instead of burning MaxIter iterations —
		// warm-start callers fall back to a cold solve on this error.
		if math.IsNaN(res) || math.IsInf(res, 0) {
			return pcgNonFinite, it, res, 0
		}
		ws.matvec(a, ap, p)
		pap = linalg.Dot(p, ap)
		if pap <= 0 {
			return pcgBreakdown, it, res, pap
		}
		alpha := rz / pap
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, ap, r)
		tApply := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		if wa != nil {
			wa.applyPar(z, r, ws)
		} else {
			m.Apply(z, r)
		}
		st.PrecondApply += time.Since(tApply)
		rzNew := linalg.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return pcgStalled, it, linalg.Norm2(r) / bnorm, 0
}
