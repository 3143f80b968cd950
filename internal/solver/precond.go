package solver

import (
	"fmt"
	"math"

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
	// alone (Resolve): block-Jacobi-3 for small systems, IC0 at and above
	// AutoIC0Threshold DoFs, where its ~3–5× iteration-count savings
	// dominate.
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
	// PrecondIC0 is zero-fill block incomplete Cholesky on the 3×3 tiles —
	// far fewer iterations, with the triangular solves level-scheduled so
	// each application runs across cores (sparse.BlockLowerTri).
	PrecondIC0
	// PrecondNone applies the identity.
	PrecondNone
)

// AutoIC0Threshold is the system size (DoFs) at and above which PrecondAuto
// resolves to IC0; below it, block-Jacobi-3. One rule serves every entry
// point. A factor cached on an array.Assembly wins at every measured size
// above the threshold, and since IC0 is factored straight from the 3×3
// tiles a bare cold solve that builds the factor for one use stays close to
// block-Jacobi-3 (from a ~25 % win to a ~20 % loss on 2 vCPUs;
// docs/SOLVER_TUNING.md has the tables). The threshold sits just below the
// 2 709-DoF lattice, the smallest measured warm crossover.
const AutoIC0Threshold = 2500

// Resolve maps PrecondAuto to the concrete kind chosen for an n-DoF system:
// IC0 at and above AutoIC0Threshold, block-Jacobi-3 below it. Concrete
// kinds resolve to themselves.
func (k PrecondKind) Resolve(n int) PrecondKind {
	if k != PrecondAuto {
		return k
	}
	if n >= AutoIC0Threshold {
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
// (Resolve). Every construction in the package funnels through
// here so no solver path hardwires its own preconditioner. For the
// factorizing kinds, ord selects the symmetric ordering — IC0 factors the
// permuted matrix P·A·Pᵀ and applies Pᵀ·(L·Lᵀ)⁻¹·P, so the ordering shapes
// the factor's dependency DAG without changing the preconditioned
// operator's symmetry; OrderingAuto resolves at DefaultWorkers
// (ResolveOrdering) — and prec the factor storage precision (see
// Precision). Block-Jacobi-3 and the identity are ordering- and
// precision-invariant and ignore both.
func NewPreconditioner(kind PrecondKind, ord OrderingKind, prec Precision, a *sparse.BCSR) (Preconditioner, error) {
	switch kind.Resolve(a.NRows) {
	case PrecondBlockJacobi3:
		return newBlockJacobi3(a), nil
	case PrecondIC0:
		return newIC0(a, ResolveOrdering(ord, a.NRows, 0), prec)
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

// ic0 is a zero-fill block incomplete Cholesky factorization: L has the
// 3×3-tile pattern of the lower triangle of (possibly symmetrically
// permuted) A and P·A·Pᵀ ≈ L·Lᵀ, held as a sparse.BlockLowerTri — tile
// micro-kernels, float32 or float64 values. The dependency-level schedules
// let each application's forward/backward solves run block rows in
// parallel, and because each block row is computed by one shared kernel,
// the parallel application is bitwise identical to the serial one for every
// worker count. Under a non-natural ordering the application is
// Pᵀ·(L·Lᵀ)⁻¹·P: scatter into permuted order, two triangular solves in
// place, gather back — the permutes are deterministic, so the worker-count
// bitwise contract holds for every ordering. An ic0 is immutable after
// construction and safe to share across concurrent solves.
type ic0 struct {
	l *sparse.BlockLowerTri
	// perm maps original→permuted index (nil for the natural ordering).
	perm []int32
	ord  OrderingKind
	// prec is the concrete storage precision of the factor values.
	prec Precision
}

// newIC0 factors a under the concrete ordering ord with factor storage
// precision prec (PrecisionAuto stores float32). The factorization is block
// IC(0) on the tile pattern (Saad, Iterative Methods for Sparse Linear
// Systems, 2nd ed., ch. 10): it runs on the tiles as stored, so an exact
// zero inside a stored tile stays in the pattern. It is serial, so the
// factor is bitwise identical across runs and worker counts.
func newIC0(a *sparse.BCSR, ord OrderingKind, prec Precision) (*ic0, error) {
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("solver: IC0 requires a square matrix")
	}
	perm := orderingPerm(ord, a)
	if perm == nil {
		ord = OrderingNatural
	}
	colPtr, rowIdx, vals := permutedLowerCols(a, perm)
	if err := factorBlockIC0(colPtr, rowIdx, vals); err != nil {
		return nil, err
	}
	single := prec != PrecisionFloat64
	l, err := sparse.NewBlockLowerTri(colPtr, rowIdx, vals, single)
	if err != nil {
		return nil, fmt.Errorf("solver: IC0: %w", err)
	}
	p := &ic0{l: l, perm: perm, ord: ord, prec: PrecisionFloat64}
	if single {
		p.prec = PrecisionFloat32
	}
	return p, nil
}

// permutedLowerCols returns the lower triangle of P·A·Pᵀ in block-column
// form for the node-level scalar permutation perm (nil = natural): block
// column J holds the tiles (I, J), I ≥ J, rows ascending. Tile (I, J) of the
// permuted matrix is tile (inv I, inv J) of a as stored, so sweeping the
// permuted block rows in ascending order and appending each tile to its
// column — a counting transpose — yields sorted columns with no CSR or CSC
// copy and no tile transposed.
func permutedLowerCols(a *sparse.BCSR, perm []int32) (colPtr, rowIdx []int32, vals []float64) {
	nb := a.NBRows()
	newOf := make([]int32, nb) // old block index → permuted
	oldOf := make([]int32, nb) // permuted block index → old
	for v := range newOf {
		q := int32(v)
		if perm != nil {
			q = perm[sparse.BlockSize*v] / sparse.BlockSize
		}
		newOf[v], oldOf[q] = q, int32(v)
	}
	colPtr = make([]int32, nb+1)
	for i := 0; i < nb; i++ {
		old := oldOf[i]
		for p := a.BRowPtr[old]; p < a.BRowPtr[old+1]; p++ {
			if j := newOf[a.BColIdx[p]]; j <= int32(i) {
				colPtr[j+1]++
			}
		}
	}
	for j := 0; j < nb; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx = make([]int32, colPtr[nb])
	vals = make([]float64, 9*len(rowIdx))
	next := make([]int32, nb)
	copy(next, colPtr[:nb])
	for i := 0; i < nb; i++ {
		old := oldOf[i]
		for p := a.BRowPtr[old]; p < a.BRowPtr[old+1]; p++ {
			if j := newOf[a.BColIdx[p]]; j <= int32(i) {
				q := next[j]
				next[j] = q + 1
				rowIdx[q] = int32(i)
				copy(vals[9*q:9*q+9], a.Vals[9*p:9*p+9])
			}
		}
	}
	return colPtr, rowIdx, vals
}

// factorBlockIC0 overwrites the lower triangle in block-column form (as
// permutedLowerCols returns it) with its zero-fill block incomplete Cholesky
// factor, left-looking: for each block column J it scatters the column's
// tiles into a tile accumulator indexed by block row, subtracts
// L_IK·L_JKᵀ for every earlier column K with a tile in row J (skipping the
// rows I outside column J's pattern — the dropped fill), takes a dense 3×3
// Cholesky of the diagonal tile and sets L_IJ = X_IJ·L_JJ⁻ᵀ. A non-positive
// pivot d is shifted to |d|+1e-12, the standard IC(0) breakdown remedy.
func factorBlockIC0(colPtr, rowIdx []int32, vals []float64) error {
	nb := len(colPtr) - 1
	for j := 0; j < nb; j++ {
		if colPtr[j] == colPtr[j+1] || rowIdx[colPtr[j]] != int32(j) {
			return fmt.Errorf("solver: IC0 missing diagonal at block column %d", j)
		}
	}
	x := make([]float64, 9*nb)
	// mark[i] == j while block row i is in column j's pattern.
	mark := make([]int32, nb)
	for i := range mark {
		mark[i] = -1
	}
	// next[k] walks column k downward as the factorization proceeds; head[i]
	// chains the columns whose next tile lies in block row i.
	next := make([]int32, nb)
	head := make([]int32, nb)
	link := make([]int32, nb)
	for i := range head {
		head[i] = -1
	}
	push := func(k int32) {
		if next[k] < colPtr[k+1] {
			i := rowIdx[next[k]]
			link[k] = head[i]
			head[i] = k
		}
	}
	for j := int32(0); j < int32(nb); j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		for p := lo; p < hi; p++ {
			copy(x[9*rowIdx[p]:9*rowIdx[p]+9], vals[9*p:9*p+9])
			mark[rowIdx[p]] = j
		}
		for k := head[j]; k != -1; {
			nextK := link[k]
			pjk := next[k]
			schurUpdate(x, mark, j, rowIdx[pjk:colPtr[k+1]], vals[9*pjk:9*colPtr[k+1]])
			next[k] = pjk + 1
			push(k)
			k = nextK
		}
		d := vals[9*lo : 9*lo+9 : 9*lo+9]
		chol3(d, x[9*j:9*j+9])
		for p := lo + 1; p < hi; p++ {
			xi := x[9*rowIdx[p] : 9*rowIdx[p]+9 : 9*rowIdx[p]+9]
			li := vals[9*p : 9*p+9 : 9*p+9]
			for r := 0; r < 9; r += 3 {
				y0 := xi[r] / d[0]
				y1 := (xi[r+1] - y0*d[3]) / d[4]
				li[r], li[r+1], li[r+2] = y0, y1, (xi[r+2]-y0*d[6]-y1*d[7])/d[8]
			}
		}
		next[j] = lo + 1
		push(j)
	}
	return nil
}

// schurUpdate subtracts L_IK·L_JKᵀ from the accumulator tile of every block
// row I of one column K's remaining tiles that column j's pattern holds
// (mark[I] == j): rows lists those block rows (the first is J itself) and
// tiles their values, the first being L_JK.
func schurUpdate(x []float64, mark []int32, j int32, rows []int32, tiles []float64) {
	m := tiles[0:9:9]
	m0, m1, m2, m3, m4, m5, m6, m7, m8 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8]
	for q, i := range rows {
		if mark[i] != j {
			continue
		}
		l := tiles[9*q : 9*q+9 : 9*q+9]
		xi := x[9*i : 9*i+9 : 9*i+9]
		for r := 0; r < 9; r += 3 {
			a0, a1, a2 := l[r], l[r+1], l[r+2]
			xi[r] -= a0*m0 + a1*m1 + a2*m2
			xi[r+1] -= a0*m3 + a1*m4 + a2*m5
			xi[r+2] -= a0*m6 + a1*m7 + a2*m8
		}
	}
}

// chol3 writes into d the lower-triangular Cholesky factor of the symmetric
// 3×3 tile whose lower triangle x holds, shifting each non-positive pivot
// as factorBlockIC0 describes. The upper entries of d are zeroed.
func chol3(d, x []float64) {
	pivot := func(v float64) float64 {
		if v <= 0 {
			v = math.Abs(v) + 1e-12
		}
		return math.Sqrt(v)
	}
	l00 := pivot(x[0])
	l10, l20 := x[3]/l00, x[6]/l00
	l11 := pivot(x[4] - l10*l10)
	l21 := (x[7] - l20*l10) / l11
	l22 := pivot(x[8] - l20*l20 - l21*l21)
	d[0], d[1], d[2] = l00, 0, 0
	d[3], d[4], d[5] = l10, l11, 0
	d[6], d[7], d[8] = l20, l21, l22
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
	var sc *sparse.BlockTriScratch
	if ws != nil {
		pool, sc = ws.pool, &ws.tri
	}
	if p.perm == nil {
		p.l.SolveLowerPar(dst, r, pool, sc)
		p.l.SolveUpperPar(dst, dst, pool, sc)
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
	p.l.SolveLowerPar(buf, buf, pool, sc)
	p.l.SolveUpperPar(buf, buf, pool, sc)
	for i := range dst {
		dst[i] = buf[p.perm[i]]
	}
}

// Ordering reports the symmetric ordering the factor was built under
// (implements Ordered).
func (p *ic0) Ordering() OrderingKind { return p.ord }

// Levels reports the factor's forward-schedule shape: dependency-level count
// and widest level (implements FactorLevels; the measurement harness and the
// BENCH snapshot read it). The count is in block levels (block rows advance
// together) and the width is in scalar rows.
func (p *ic0) Levels() (count, maxWidth int) {
	return p.l.Fwd.NumLevels(), sparse.BlockSize * p.l.Fwd.MaxWidth()
}

// FactorPrecision reports the concrete storage precision of the factor
// values (implements FactorPrecisioned; PCG keys its true-residual check
// off this).
func (p *ic0) FactorPrecision() Precision { return p.prec }

// MemoryBytes reports the factor's footprint (both triangles + schedules +
// the ordering permutation, when present).
func (p *ic0) MemoryBytes() int64 { return int64(4*len(p.perm)) + p.l.MemoryBytes() }

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
	kp.apply(z, r, &st)
	copy(p, z)
	rz := linalg.Dot(r, z)

	outcome, it, res, pap := pcgSteady(a, b, &kp, &st, opt, x, r, z, p, ap, bnorm, rz)
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
func pcgSteady(a *sparse.BCSR, b []float64, kp *krylovPrecond, st *Stats, opt Options, x, r, z, p, ap []float64, bnorm, rz float64) (outcome pcgOutcome, it int, res, pap float64) {
	ws := kp.ws
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
		kp.apply(z, r, st)
		rzNew := linalg.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return pcgStalled, it, linalg.Norm2(r) / bnorm, 0
}
