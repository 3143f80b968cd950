// Package array implements the global stage of MORE-Stress (§4.3): the TSV
// array is an abstract "mesh" whose "elements" are unit blocks and whose
// DoFs are the Lagrange surface-node displacements. The dense element
// matrices from the one-shot local stage are assembled by the standard FEM
// procedure into a sparse global system, boundary conditions are applied by
// lifting, the system is solved iteratively (GMRES per the paper, CG
// optionally), and per-block fields are reconstructed from the local basis.
package array

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/fem"
	"repro/internal/field"
	"repro/internal/mesh"
	"repro/internal/rom"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// BCKind selects the global boundary condition.
type BCKind int

const (
	// ClampedTopBottom fixes u = 0 on the top and bottom surfaces and
	// leaves the lateral boundary free (scenario 1, Fig. 5(a)).
	ClampedTopBottom BCKind = iota
	// PrescribedBoundary imposes displacements from a coarse package
	// solution on every outer boundary node (sub-modeling, §4.4).
	PrescribedBoundary
)

// SolverKind selects the global linear solver.
type SolverKind int

const (
	// GMRES is the paper's recommendation for the global problem.
	GMRES SolverKind = iota
	// CG exploits the symmetric positive-definiteness of the assembled
	// global matrix (ablation option).
	CG
	// Direct factors the reduced global matrix with sparse Cholesky — the
	// alternative the paper argues against for one-shot global solves
	// (§4.3); provided for the ablation benches.
	Direct
)

// Problem describes one global-stage computation.
type Problem struct {
	// ROM is the TSV unit-block model from the one-shot local stage.
	ROM *rom.ROM
	// DummyROM models the pure-silicon padding blocks; required when
	// IsDummy marks any block. Its Nodes/Geometry must match ROM.
	DummyROM *rom.ROM
	// Bx, By are the array dimensions in blocks (including dummies).
	Bx, By int
	// IsDummy marks padding blocks; nil means all blocks carry TSVs.
	IsDummy func(bx, by int) bool
	// DeltaT is the thermal load in °C (paper: −250).
	DeltaT float64
	// DeltaTFor optionally overrides DeltaT per block (piecewise-constant
	// nonuniform thermal fields, e.g. hotspots); nil means uniform DeltaT.
	DeltaTFor func(bx, by int) float64
	// BC selects the boundary condition kind.
	BC BCKind
	// BoundaryDisp supplies prescribed displacements at outer-boundary node
	// positions (global µm coordinates); used with PrescribedBoundary.
	BoundaryDisp func(p mesh.Vec3) [3]float64
	// Solver selects GMRES (default), CG, or Direct.
	Solver SolverKind
	// Opt configures the iterative solver, including the preconditioner
	// (Opt.Precond, default solver.PrecondAuto).
	Opt solver.Options
	// Workers bounds the parallelism of the assembly and, unless
	// Opt.Workers sets its own, of the iterative solve (0 = GOMAXPROCS,
	// solver.DefaultWorkers). It never changes the answer.
	Workers int
	// Assembly optionally supplies a prebuilt assemble-once snapshot of the
	// reduced global system. The matrix depends only on the ROM content,
	// the array dimensions, the dummy layout, and the BC pattern — not on
	// the thermal load — so a ΔT sweep over one lattice can build it once
	// (NewAssembly) and re-solve with a fresh RHS per scenario. The caller
	// must guarantee the snapshot was built for an equivalent Problem;
	// Solve checks the cheap structural invariants (dimensions, node
	// counts, BC kind) and trusts the rest.
	Assembly *Assembly
}

// Lattice is the global surface-node lattice: integer coordinates
// gx ∈ [0, Bx·(nx−1)], gy ∈ [0, By·(ny−1)], gz ∈ [0, nz−1], with
// block-interior lattice sites absent.
type Lattice struct {
	Bx, By        int
	NxN, NyN, NzN int // interpolation node counts per block
	GX, GY, GZ    int // lattice extents (node counts)
	Pitch, Height float64
	// Index maps lattice site (gx, gy, gz) to global node id, −1 if the
	// site is interior to a block. Flattened with gx fastest.
	Index []int32
	// Nodes lists the lattice triples of existing nodes in id order.
	Nodes [][3]int
}

// NewLattice enumerates the global surface nodes.
func NewLattice(bx, by int, nodes [3]int, pitch, height float64) *Lattice {
	nx, ny, nz := nodes[0], nodes[1], nodes[2]
	l := &Lattice{
		Bx: bx, By: by,
		NxN: nx, NyN: ny, NzN: nz,
		GX: bx*(nx-1) + 1, GY: by*(ny-1) + 1, GZ: nz,
		Pitch: pitch, Height: height,
	}
	l.Index = make([]int32, l.GX*l.GY*l.GZ)
	for gz := 0; gz < l.GZ; gz++ {
		interiorZ := gz > 0 && gz < l.GZ-1
		for gy := 0; gy < l.GY; gy++ {
			interiorY := gy%(ny-1) != 0
			for gx := 0; gx < l.GX; gx++ {
				interiorX := gx%(nx-1) != 0
				at := l.flat(gx, gy, gz)
				if interiorX && interiorY && interiorZ {
					l.Index[at] = -1
					continue
				}
				l.Index[at] = int32(len(l.Nodes))
				l.Nodes = append(l.Nodes, [3]int{gx, gy, gz})
			}
		}
	}
	return l
}

func (l *Lattice) flat(gx, gy, gz int) int { return gx + l.GX*(gy+l.GY*gz) }

// NodeID returns the global node id at lattice site (gx, gy, gz), −1 if the
// site is interior to a block.
func (l *Lattice) NodeID(gx, gy, gz int) int32 { return l.Index[l.flat(gx, gy, gz)] }

// NumNodes returns the number of global surface nodes.
func (l *Lattice) NumNodes() int { return len(l.Nodes) }

// NumDoFs returns 3 × NumNodes.
func (l *Lattice) NumDoFs() int { return 3 * len(l.Nodes) }

// Position returns the physical coordinates of global node id.
func (l *Lattice) Position(id int) mesh.Vec3 {
	t := l.Nodes[id]
	return mesh.Vec3{
		X: l.Pitch * float64(t[0]) / float64(l.NxN-1),
		Y: l.Pitch * float64(t[1]) / float64(l.NyN-1),
		Z: l.Height * float64(t[2]) / float64(l.NzN-1),
	}
}

// OnOuterBoundary reports whether node id lies on the outer surface of the
// array domain.
func (l *Lattice) OnOuterBoundary(id int) bool {
	t := l.Nodes[id]
	return t[0] == 0 || t[0] == l.GX-1 ||
		t[1] == 0 || t[1] == l.GY-1 ||
		t[2] == 0 || t[2] == l.GZ-1
}

// OnTopOrBottom reports whether node id lies on the clamped faces of
// scenario 1.
func (l *Lattice) OnTopOrBottom(id int) bool {
	t := l.Nodes[id]
	return t[2] == 0 || t[2] == l.GZ-1
}

// BlockDoFMap returns, for block (bx, by), the global DoF index of each of
// the ROM's element DoFs (canonical surface-node order × 3 components).
func (l *Lattice) BlockDoFMap(r *rom.ROM, bx, by int) []int32 {
	n := r.Surf.Count()
	out := make([]int32, 3*n)
	for s := 0; s < n; s++ {
		t := r.Surf.IJK[s]
		gid := l.NodeID(bx*(l.NxN-1)+t[0], by*(l.NyN-1)+t[1], t[2])
		if gid < 0 {
			panic(fmt.Sprintf("array: block (%d,%d) surface node %v maps to interior lattice site", bx, by, t))
		}
		for c := 0; c < 3; c++ {
			out[3*s+c] = 3*gid + int32(c)
		}
	}
	return out
}

// Solution is the outcome of the global stage.
type Solution struct {
	// Prob is a snapshot of the solved problem for post-processing (field
	// reconstruction needs the ROMs and the ΔT field). Its Assembly is
	// cleared so a retained Solution — e.g. a JobResult a caller keeps for
	// post-processing — does not pin the reduced global matrix beyond the
	// solve.
	Prob    *Problem
	Lattice *Lattice
	// Q holds the global surface-node displacements (3 per node).
	Q []float64
	// QFree is the solution in reduced free-DoF ordering. Empty in the
	// degenerate all-constrained case.
	QFree []float64
	// Stats reports the iterative solve, including the resolved
	// preconditioner kind and whether the solve was warm-started.
	Stats solver.Stats
	// Ordering is the symmetric ordering the solve's preconditioner
	// factored under (mirrors Stats.Ordering): OrderingTwoEnded for IC0,
	// whose factors follow the order NewAssembly numbers A_ff in, and
	// OrderingNatural otherwise.
	Ordering solver.OrderingKind
	// Timings of the two global-stage phases. When AssemblyShared is true,
	// AssembleTime covers only the per-scenario RHS build; the matrix
	// assembly was paid once by the shared Assembly (its cost is in
	// Assembly.BuildTime).
	AssembleTime, SolveTime time.Duration
	// AssemblyShared reports that the reduced system came from
	// Problem.Assembly instead of being assembled by this Solve call.
	AssemblyShared bool
	// PrecondShared reports that the solve's preconditioner — for Direct,
	// its Cholesky factor — came from the assembly's cache (built by an
	// earlier solve on the same lattice) rather than being constructed by
	// this call; for iterative solves, the one solve that populates the
	// cache records the cost in Stats.PrecondBuild. A scaled SolveUniform
	// answer counts as shared.
	PrecondShared bool
	// Precision is the storage precision of the solve's preconditioner
	// factor (mirrors Stats.Precision; PrecisionFloat64 for direct solves,
	// block-Jacobi-3, and the degenerate all-constrained case).
	Precision solver.Precision
	// PrecisionFallback reports that the solve stalled under a float32
	// factor (solver.ErrStalled, from GMRES or PCG) and the recorded Stats
	// are from the retry against the assembly's float64 factor.
	PrecisionFallback bool
	// GlobalDoFs is the size of the abstract global system.
	GlobalDoFs int
	// MatrixNNZ is the assembled global matrix's stored entries.
	MatrixNNZ int

	// unit is the cached unit-load solution a SolveUniform answer is
	// scaled from (nil for every other solution); VMField scales its
	// cached von Mises fields by |ΔT|. A retained answer keeps the unit
	// solution and its fields alive, never the Assembly.
	unit *unitSolution
}

// Assembly is the assemble-once snapshot of a lattice's reduced global
// system: everything about the global stage that does not depend on the
// thermal load. Solving a scenario against a prebuilt Assembly costs one
// RHS build plus the linear solve; the tile scatter that assembles the
// reduced matrix is paid once per lattice — and so is each
// preconditioner, built lazily on first use and cached on the Assembly per
// concrete PrecondKind (the preconditioner depends only on the reduced
// matrix, so every scenario, ΔT sweep, and async job on the lattice shares
// it). The reduced matrix A_ff is held once, as 3×3 tiles (Blocked): every
// Krylov mat-vec and preconditioner build reads them, and the direct solver
// expands them to a transient CSR only to factor it, once per lattice: the
// sparse Cholesky factor is cached next to the preconditioners. The
// Assembly also caches the unit-load solutions SolveUniform scales, and
// the von Mises fields sampled from them. The reduced system itself is
// immutable after NewAssembly; every cache is internally synchronized, so
// an Assembly is safe to share across concurrent Solve and SolveUniform
// calls.
type Assembly struct {
	// Lat is the global surface-node lattice.
	Lat *Lattice
	// Red is the reduced system — unit thermal load b_f and the free/BC
	// index maps — nil in the degenerate case where every DoF is
	// constrained (AllBC). Its A_ff is nil: the tiled copy (Blocked) is the
	// only one. Its A_fb is kept only under PrescribedBoundary, the one BC
	// whose right-hand side lifts boundary values through it.
	Red *fem.Reduced
	// BC is the boundary-condition kind the constraint mask was built for.
	BC BCKind
	// BCNodes lists the constrained global node ids in id order.
	BCNodes []int32
	// AllBC marks the degenerate case with no free DoFs (e.g. (2,2,2)
	// interpolation nodes under ClampedTopBottom).
	AllBC bool
	// NNZ is the stored-entry count of the full assembled matrix.
	NNZ int
	// BuildTime is the one-shot cost of NewAssembly.
	BuildTime time.Duration

	// aff is the reduced matrix A_ff as 3×3 tiles (nil when AllBC).
	aff *sparse.BCSR

	// preconds caches the lazily built preconditioners, one per
	// (kind, precision), and chol the Cholesky factor of Direct solves;
	// units caches the unit-load solutions SolveUniform scales, at most
	// maxUnitSolutions of them, each with its von Mises fields.
	preconds OnceMap[precondKey, solver.Preconditioner]
	chol     OnceMap[struct{}, *solver.CholFactor]
	units    OnceMap[unitKey, *unitSolution]
}

// precondKey identifies one cached preconditioner: the concrete kind plus,
// for IC0, the factor storage precision (the other kinds always cache under
// PrecisionFloat64 so spellings share one entry; PrecisionAuto
// canonicalizes to PrecisionFloat32 for IC0 because both build the
// identical float32 factor).
type precondKey struct {
	kind solver.PrecondKind
	prec solver.Precision
}

// AssemblyPrecond is the outcome of Assembly.PreconditionerPrec.
type AssemblyPrecond struct {
	// M is the shared preconditioner.
	M solver.Preconditioner
	// Kind is the concrete preconditioner kind (Auto resolved).
	Kind solver.PrecondKind
	// Ordering is the symmetric ordering the preconditioner was built
	// under (orderingOf): OrderingTwoEnded for IC0, OrderingNatural for
	// the kinds that factor nothing.
	Ordering solver.OrderingKind
	// Precision is the concrete storage precision of the built factor:
	// the requested one for IC0 (PrecisionAuto resolves to float32),
	// float64 for every non-factorizing kind.
	Precision solver.Precision
	// Hit reports that the preconditioner was already cached (or is being
	// built by a concurrent caller this call waited on) rather than built
	// by this call.
	Hit bool
	// Build is the construction cost paid by this call; zero on a hit.
	Build time.Duration
}

// PreconditionerPrec returns the lattice's shared preconditioner for the
// requested kind and factor precision, building and caching it on first
// use. PrecondAuto resolves to its concrete kind (IC0) first, so an
// explicit request for the resolved kind shares the same entry and every
// solve of a lattice shares one factor whatever its parallelism. IC0
// factors A_ff in the two-ended order NewAssembly numbers it in, so every
// requested ordering maps to the same entry. Only IC0 is
// precision-sensitive; the other kinds cache under PrecisionFloat64
// whatever is requested. For IC0,
// PrecisionAuto and PrecisionFloat32 build the identical float32 factor and
// so share one cache entry, while PrecisionFloat64 caches separately — the
// float64 factor a stalled float32 solve retries against lives next to the
// float32 factor it replaces. The requested ordering changes nothing and
// the trailing worker count is unused; both stay for existing callers.
func (a *Assembly) PreconditionerPrec(kind solver.PrecondKind, ord solver.OrderingKind, prec solver.Precision, _ int) (AssemblyPrecond, error) {
	if a.Red == nil {
		return AssemblyPrecond{}, fmt.Errorf("array: assembly has no free DoFs, nothing to precondition")
	}
	key := a.precondKey(kind, prec)
	ord = orderingOf(key.kind)
	var build time.Duration
	m, built, err := a.preconds.Get(key, func() (solver.Preconditioner, error) {
		t0 := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		defer func() { build = time.Since(t0) }()
		return solver.NewPreconditioner(key.kind, key.prec, a.aff)
	})
	if err != nil {
		return AssemblyPrecond{Kind: key.kind, Ordering: ord}, err
	}
	out := AssemblyPrecond{M: m, Kind: key.kind, Ordering: ord, Precision: solver.PrecisionFloat64, Hit: !built, Build: build}
	if fp, ok := m.(solver.FactorPrecisioned); ok {
		out.Precision = fp.FactorPrecision()
	}
	return out, nil
}

// orderingOf returns the ordering a preconditioner of the concrete kind
// factors an assembly's A_ff under: OrderingTwoEnded for IC0, which
// factors in the matrix's row order, the two-ended numbering, and
// OrderingNatural for the kinds that factor nothing. This is the one home
// of the rule, so every entry point reports the same ordering.
func orderingOf(kind solver.PrecondKind) solver.OrderingKind {
	if kind == solver.PrecondIC0 {
		return solver.OrderingTwoEnded
	}
	return solver.OrderingNatural
}

// precondKey resolves a requested preconditioner to the key it caches
// under; see PreconditionerPrec.
func (a *Assembly) precondKey(kind solver.PrecondKind, prec solver.Precision) precondKey {
	resolved := kind.Resolve()
	if resolved != solver.PrecondIC0 {
		return precondKey{kind: resolved, prec: solver.PrecisionFloat64}
	}
	if prec == solver.PrecisionAuto {
		prec = solver.PrecisionFloat32
	}
	return precondKey{kind: resolved, prec: prec}
}

// Blocked returns the reduced matrix A_ff as 3×3 tiles (BCSR) — the only
// copy the assembly holds; nil when there are no free DoFs.
func (a *Assembly) Blocked() *sparse.BCSR { return a.aff }

// NewAssembly runs the load-independent part of the global stage for the
// problem: lattice enumeration, the constraint split, and the scatter of
// every block's 3×3 stiffness tiles straight into the reduced A_ff (and,
// under PrescribedBoundary, A_fb) with the unit load b_f. The free nodes
// are numbered in the lattice's two-ended elimination order
// (twoEndedOrder), so A_ff, b_f, Red.FreeIdx and every free-DoF vector
// follow it, and every IC0 factor of A_ff, built in the matrix's own row
// order, is factored two-ended; Red.Expand maps a free solution back to
// global DoFs. It can be placed in Problem.Assembly for every scenario on
// the same lattice (same ROM content, dimensions, dummy layout, and BC
// kind). The scatter sums each distinct tile once and runs serially, so
// the worker count, kept for the callers that pass one, has no effect.
func NewAssembly(p *Problem, _ int) (*Assembly, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	lat := NewLattice(p.Bx, p.By, p.ROM.Spec.Nodes, p.ROM.Spec.Geom.Pitch, p.ROM.Spec.Geom.Height)

	// Dirichlet reduction removes whole nodes: number the constrained
	// nodes in id order and the free ones in elimination order.
	freeOf := make([]int32, lat.NumNodes())
	bcOf := make([]int32, lat.NumNodes())
	var bcNodes []int32
	nFree := 0
	for id := range freeOf {
		var fixed bool
		switch p.BC {
		case ClampedTopBottom:
			fixed = lat.OnTopOrBottom(id)
		case PrescribedBoundary:
			fixed = lat.OnOuterBoundary(id)
		}
		if fixed {
			freeOf[id], bcOf[id] = -1, int32(len(bcNodes))
			bcNodes = append(bcNodes, int32(id))
		} else {
			freeOf[id], bcOf[id] = 0, -1
			nFree++
		}
	}
	twoEndedOrder(lat, freeOf)
	inc := newIncidence(p, lat)
	aff, pairs := inc.scatter(freeOf, freeOf, nFree, nFree, true)
	asm := &Assembly{Lat: lat, BC: p.BC, BCNodes: bcNodes, AllBC: nFree == 0, NNZ: 9 * pairs,
		units: OnceMap[unitKey, *unitSolution]{Max: maxUnitSolutions}}
	if !asm.AllBC {
		red := &fem.Reduced{
			Bf:      inc.unitLoad(freeOf, nFree),
			FreeIdx: make([]int32, 3*nFree),
			BCIdx:   make([]int32, 0, 3*len(bcNodes)),
			NFull:   lat.NumDoFs(),
		}
		for id, fi := range freeOf {
			d := 3 * int32(id)
			if fi >= 0 {
				red.FreeIdx[3*fi], red.FreeIdx[3*fi+1], red.FreeIdx[3*fi+2] = d, d+1, d+2
			} else {
				red.BCIdx = append(red.BCIdx, d, d+1, d+2)
			}
		}
		if p.BC == PrescribedBoundary {
			afb, _ := inc.scatter(freeOf, bcOf, nFree, len(bcNodes), false)
			red.Afb = afb.ToCSR()
		}
		asm.Red, asm.aff = red, aff
	}
	asm.BuildTime = time.Since(start)
	return asm, nil
}

// NumFree returns the reduced system size (0 when AllBC).
func (a *Assembly) NumFree() int {
	if a.Red == nil {
		return 0
	}
	return a.Red.NFree()
}

// MemoryBytes estimates the snapshot's storage footprint, for byte-budgeted
// caches. Lazily cached preconditioners, the Cholesky factor, unit-load
// solutions and their von Mises fields count too, so the assembly cache's
// byte budget sees them (it re-sums entry sizes after every build because
// of exactly this growth).
func (a *Assembly) MemoryBytes() int64 {
	b := int64(4*len(a.Lat.Index)) + int64(24*len(a.Lat.Nodes)) + int64(4*len(a.BCNodes))
	if a.Red != nil {
		b += a.aff.MemoryBytes()
		if a.Red.Afb != nil {
			b += a.Red.Afb.MemoryBytes()
		}
		b += int64(8*len(a.Red.Bf)) + int64(4*(len(a.Red.FreeIdx)+len(a.Red.BCIdx)))
	}
	a.preconds.Each(func(m solver.Preconditioner) {
		if s, ok := m.(solver.Sized); ok {
			b += s.MemoryBytes()
		}
	})
	a.chol.Each(func(f *solver.CholFactor) { b += f.MemoryBytes() })
	a.units.Each(func(u *unitSolution) {
		b += int64(8*(len(u.sol.QFree)+len(u.sol.Q))) + 128 // 128: the Stats, rounded up
		u.fields.Each(func(f *field.Grid2D) { b += int64(8 * len(f.V)) })
	})
	return b
}

// matches checks the cheap structural invariants between a shared assembly
// and the problem about to use it. It cannot detect a different ROM with
// identical dimensions — keying the cache on ROM content is the caller's
// contract.
func (a *Assembly) matches(p *Problem) error {
	if a.Lat.Bx != p.Bx || a.Lat.By != p.By {
		return fmt.Errorf("array: shared assembly is %d×%d blocks, problem wants %d×%d", a.Lat.Bx, a.Lat.By, p.Bx, p.By)
	}
	n := p.ROM.Spec.Nodes
	if a.Lat.NxN != n[0] || a.Lat.NyN != n[1] || a.Lat.NzN != n[2] {
		return fmt.Errorf("array: shared assembly node counts (%d,%d,%d) differ from ROM %v", a.Lat.NxN, a.Lat.NyN, a.Lat.NzN, n)
	}
	if a.BC != p.BC {
		return fmt.Errorf("array: shared assembly was built for BC %d, problem wants %d", a.BC, p.BC)
	}
	return nil
}

// Validate checks problem consistency.
func (p *Problem) Validate() error {
	if p.ROM == nil {
		return fmt.Errorf("array: Problem requires a ROM")
	}
	if p.Bx < 1 || p.By < 1 {
		return fmt.Errorf("array: array size must be positive, got %d×%d", p.Bx, p.By)
	}
	if p.IsDummy != nil && p.DummyROM == nil {
		hasDummy := false
		for by := 0; by < p.By && !hasDummy; by++ {
			for bx := 0; bx < p.Bx && !hasDummy; bx++ {
				hasDummy = p.IsDummy(bx, by)
			}
		}
		if hasDummy {
			return fmt.Errorf("array: IsDummy marks blocks but DummyROM is nil")
		}
	}
	if p.DummyROM != nil {
		if p.DummyROM.Spec.Nodes != p.ROM.Spec.Nodes {
			return fmt.Errorf("array: DummyROM nodes %v differ from ROM nodes %v", p.DummyROM.Spec.Nodes, p.ROM.Spec.Nodes)
		}
		if p.DummyROM.Spec.Geom.Pitch != p.ROM.Spec.Geom.Pitch || p.DummyROM.Spec.Geom.Height != p.ROM.Spec.Geom.Height { //stressvet:allow floatcmp -- spec fields must match verbatim (copied, not computed)
			return fmt.Errorf("array: DummyROM block dimensions differ from ROM")
		}
	}
	if p.BC == PrescribedBoundary && p.BoundaryDisp == nil {
		return fmt.Errorf("array: PrescribedBoundary requires BoundaryDisp")
	}
	return nil
}

// snapshot copies the problem for retention in a Solution, dropping the
// Assembly (the full reduced matrix — post-processing only needs the
// Lattice, stored on the Solution), which a solved result no longer needs.
func (p *Problem) snapshot() *Problem {
	c := *p
	c.Assembly = nil
	return &c
}

// Solve runs the global stage: assembly (Eqs. 18–19 outputs scattered by the
// standard procedure) — or reuse of a shared Problem.Assembly — lifting of
// boundary conditions, the preconditioned solve, and returns the global
// surface-node displacement.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	tAsm := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	asm := p.Assembly
	shared := asm != nil
	if shared {
		if err := asm.matches(p); err != nil {
			return nil, err
		}
	} else {
		var err error
		asm, err = NewAssembly(p, workers)
		if err != nil {
			return nil, err
		}
	}
	lat := asm.Lat
	ndof := lat.NumDoFs()
	snap := p.snapshot()

	// With (2,2,2) interpolation nodes and clamped top/bottom every global
	// DoF is constrained; the global solve degenerates to q = u_bc (the
	// paper's Table 3 still evaluates this case through the per-block
	// thermal basis).
	if asm.AllBC {
		q := make([]float64, ndof)
		if p.BC == PrescribedBoundary {
			for _, id := range asm.BCNodes {
				d := p.BoundaryDisp(lat.Position(int(id)))
				q[3*id] = d[0]
				q[3*id+1] = d[1]
				q[3*id+2] = d[2]
			}
		}
		return &Solution{
			Prob: snap, Lattice: lat, Q: q,
			Stats:          solver.Stats{Converged: true, Ordering: solver.OrderingNatural, Precision: solver.PrecisionFloat64},
			Ordering:       solver.OrderingNatural,
			Precision:      solver.PrecisionFloat64,
			AssembleTime:   time.Since(tAsm),
			AssemblyShared: shared,
			GlobalDoFs:     ndof, MatrixNNZ: asm.NNZ,
		}, nil
	}

	red := asm.Red
	var ubc []float64
	if p.BC == PrescribedBoundary {
		ubc = make([]float64, len(red.BCIdx))
		for bi, id := range asm.BCNodes {
			d := p.BoundaryDisp(lat.Position(int(id)))
			ubc[3*bi] = d[0]
			ubc[3*bi+1] = d[1]
			ubc[3*bi+2] = d[2]
		}
	}
	// The assembly carries the unit thermal load: a uniform scenario scales
	// it by ΔT; a per-block field rebuilds the (cheap) load vector.
	var rhs []float64
	if p.DeltaTFor != nil {
		rhs = red.RHSFrom(assembleLoad(p, lat), ubc)
	} else {
		rhs = red.RHS(p.DeltaT, ubc)
	}
	asmTime := time.Since(tAsm)

	tSolve := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	opt := p.Opt
	if opt.Workers == 0 {
		opt.Workers = workers
	}
	// Iterative solves draw their preconditioner from the assembly's
	// per-kind cache: built on the lattice's first solve, shared by every
	// scenario after it. A caller-supplied Opt.M wins over the cache.
	precondShared := false
	drewPrec := solver.PrecisionFloat64
	var precondBuild time.Duration
	if p.Solver != Direct && opt.M == nil {
		ap, err := asm.PreconditionerPrec(opt.Precond, opt.Ordering, opt.Precision, 0)
		if err != nil {
			return nil, fmt.Errorf("array: global preconditioner: %w", err)
		}
		opt.M = ap.M
		opt.Precond = ap.Kind
		precondShared = ap.Hit
		drewPrec = ap.Precision
		precondBuild = ap.Build
	}
	solve := func() (qf []float64, stats solver.Stats, err error) {
		switch p.Solver {
		case CG:
			return solver.PCG(asm.aff, rhs, nil, opt)
		case Direct:
			chol, built, err := asm.chol.Get(struct{}{}, func() (*solver.CholFactor, error) {
				return solver.NewCholesky(asm.aff.ToCSR())
			})
			if err != nil {
				return nil, stats, err
			}
			precondShared = !built
			return chol.Solve(rhs), solver.Stats{Converged: true, Ordering: solver.OrderingNatural, Precision: solver.PrecisionFloat64}, nil
		default:
			return solver.GMRES(asm.aff, rhs, nil, opt)
		}
	}
	qf, stats, err := solve()
	// One retry after a stall (GMRES or PCG) under a float32 factor, against
	// the assembly's float64 factor — the sibling cache entry of the
	// concrete kind drawn above, built once per lattice. A float64 stall has
	// nothing to change; structural failures (breakdowns) are not stalls.
	precFellBack := errors.Is(err, solver.ErrStalled) && drewPrec == solver.PrecisionFloat32
	if precFellBack {
		ap, perr := asm.PreconditionerPrec(opt.Precond, opt.Ordering, solver.PrecisionFloat64, 0)
		if perr != nil {
			return nil, fmt.Errorf("array: float64 fallback preconditioner: %w (after %v)", perr, err)
		}
		opt.M = ap.M
		opt.Precision = solver.PrecisionFloat64
		precondBuild += ap.Build
		qf, stats, err = solve()
	}
	if err != nil {
		return nil, fmt.Errorf("array: global solve failed: %w", err)
	}
	if opt.Work != nil {
		// A workspace-backed solve returns a vector owned by the workspace,
		// valid only until its next solve; QFree is retained (unit-solution
		// cache, post-processing), so detach it.
		qf = append([]float64(nil), qf...)
	}
	if p.Solver != Direct {
		// The solver saw a prebuilt M, so its own PrecondBuild is zero;
		// surface the cache's build cost on the solve that paid it. It
		// factored in A_ff's row order and so reports natural; report the
		// ordering that numbering is.
		stats.PrecondBuild = precondBuild
		stats.Ordering = orderingOf(stats.Precond)
	}
	q := red.Expand(qf, ubc)
	solveTime := time.Since(tSolve)

	return &Solution{
		Prob: snap, Lattice: lat, Q: q, QFree: qf, Stats: stats,
		Ordering:     stats.Ordering,
		Precision:    stats.Precision,
		AssembleTime: asmTime, SolveTime: solveTime,
		AssemblyShared:    shared,
		PrecondShared:     precondShared,
		PrecisionFallback: precFellBack,
		GlobalDoFs:        ndof, MatrixNNZ: asm.NNZ,
	}, nil
}

// maxUnitSolutions caps the unit-load solutions one Assembly keeps. Tol,
// MaxIter and Restart are request fields, so without a cap one lattice could
// collect a solution per distinct request.
const maxUnitSolutions = 4

// maxUnitFields caps the von Mises fields, one per grid size, that a unit
// solution keeps, and maxUnitFieldBytes what one Assembly keeps of them in
// all. A field is cached only if it fits its even share of the ceiling,
// maxUnitFieldBytes/(maxUnitSolutions·maxUnitFields), so whether it is
// depends on the field's size alone, never on what else is cached, and a
// served field's bits do not depend on the lattice's history.
const (
	maxUnitFields     = 4
	maxUnitFieldBytes = 64 << 20
)

// unitFieldCached reports whether the bx×by lattice's von Mises field at
// grid size gs fits a cached unit field's share of maxUnitFieldBytes.
func unitFieldCached(bx, by, gs int) bool {
	return 8*int64(bx)*int64(by)*int64(gs)*int64(gs) <= maxUnitFieldBytes/(maxUnitSolutions*maxUnitFields)
}

// unitKey identifies a unit-load solution: the solver kind plus every option
// that changes its numbers, with the preconditioner resolved. Workers is not
// in it, because the solve is bitwise independent of it.
type unitKey struct {
	solver           SolverKind
	precond          precondKey
	tol              float64
	maxIter, restart int
}

// unitKey is the key p's unit-load solution caches under.
func (a *Assembly) unitKey(p *Problem) unitKey {
	return unitKey{
		solver:  p.Solver,
		precond: a.precondKey(p.Opt.Precond, p.Opt.Precision),
		tol:     p.Opt.Tol, maxIter: p.Opt.MaxIter, restart: p.Opt.Restart,
	}
}

// unitSolution is a cached unit-load (ΔT = 1) solve and the von Mises
// fields sampled from it, one per grid size, at most maxUnitFields of
// them. The solution's Prob snapshot holds no Assembly, so a scaled answer
// that records its unitSolution does not pin the assembly either.
type unitSolution struct {
	sol    *Solution
	fields OnceMap[int, *field.Grid2D]
}

// vmField returns the unit solution's von Mises field at grid size gs,
// sampling it on first use; concurrent first callers share one sampling.
// It is nil if the sampling this call waited on panicked.
func (u *unitSolution) vmField(gs, workers int) *field.Grid2D {
	f, _, _ := u.fields.Get(gs, func() (*field.Grid2D, error) {
		return u.sol.VMField(gs, workers), nil
	})
	return f
}

// SolveUniform answers a uniform-ΔT problem on a shared Assembly as ΔT
// times the unit-load solution (under ClampedTopBottom the reduced
// right-hand side is ΔT·b_f), which the first request per unitKey solves
// cold and caches on the Assembly. A scaled answer reports the unit solve's
// Stats with 0 iterations and Warm set; the call that ran the unit solve
// reports that solve's. Every answer's VMField is |ΔT| times the unit
// solution's field, which each grid size samples once (von Mises is
// positively homogeneous in the load). Problems outside the superposition
// (no Assembly, a per-block load, a prescribed boundary, Direct, a caller's
// M, a zero or non-finite ΔT) go to Solve.
func SolveUniform(p *Problem) (*Solution, error) {
	asm, dt := p.Assembly, p.DeltaT
	if asm == nil || asm.AllBC || p.DeltaTFor != nil || p.BC != ClampedTopBottom || p.Solver == Direct ||
		p.Opt.M != nil || dt == 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return Solve(p)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := asm.matches(p); err != nil {
		return nil, err
	}
	start := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	var fresh *Solution
	u, _, err := asm.units.Get(asm.unitKey(p), func() (*unitSolution, error) {
		unit := *p
		unit.DeltaT = 1
		sol, err := Solve(&unit)
		if err != nil {
			return nil, err
		}
		answer := *sol
		fresh = &answer
		return &unitSolution{sol: sol, fields: OnceMap[int, *field.Grid2D]{Max: maxUnitFields}}, nil
	})
	if err != nil {
		return nil, err
	}
	qf := make([]float64, len(u.sol.QFree))
	for i, v := range u.sol.QFree {
		qf[i] = dt * v
	}
	if fresh != nil {
		fresh.Prob, fresh.QFree, fresh.Q, fresh.unit = p.snapshot(), qf, asm.Red.Expand(qf, nil), u
		fresh.SolveTime = time.Since(start) - fresh.AssembleTime
		return fresh, nil
	}
	st := u.sol.Stats
	st.Iterations, st.Warm, st.PrecondBuild, st.PrecondApply = 0, true, 0, 0
	return &Solution{
		Prob: p.snapshot(), Lattice: asm.Lat, Q: asm.Red.Expand(qf, nil), QFree: qf, Stats: st,
		Ordering: st.Ordering, Precision: st.Precision, SolveTime: time.Since(start),
		AssemblyShared: true, PrecondShared: true,
		GlobalDoFs: asm.Lat.NumDoFs(), MatrixNNZ: asm.NNZ,
		unit: u,
	}, nil
}

// BlockDoFs extracts the element DoF values of block (bx, by) from the
// global solution.
func (s *Solution) BlockDoFs(bx, by int) []float64 {
	r := s.blockROM(bx, by)
	dmap := s.Lattice.BlockDoFMap(r, bx, by)
	q := make([]float64, len(dmap))
	for i, d := range dmap {
		q[i] = s.Q[d]
	}
	return q
}

func (s *Solution) blockROM(bx, by int) *rom.ROM {
	if s.Prob.IsDummy != nil && s.Prob.IsDummy(bx, by) {
		return s.Prob.DummyROM
	}
	return s.Prob.ROM
}

// blockDeltaT returns the thermal load of block (bx, by).
func (p *Problem) blockDeltaT(bx, by int) float64 {
	if p.DeltaTFor != nil {
		return p.DeltaTFor(bx, by)
	}
	return p.DeltaT
}

// VMField reconstructs each block's fine displacement field (Eq. 15) on
// the mid-height cut plane and samples its von Mises stress with a gs×gs
// grid per block, returning a (Bx·gs)×(By·gs) field. Only the element
// layer the plane cuts is reconstructed, rom.PlaneBatch same-ROM blocks
// per pass over the layer's basis rows; the result is bitwise equal to sampling
// each block's full Reconstruct with SampleVM. Parallel over batches.
//
// A SolveUniform answer instead returns |ΔT| times its unit solution's
// field, sampled this way once per grid size and cached, unless the field
// is too large to cache (unitFieldCached).
func (s *Solution) VMField(gs int, workers int) *field.Grid2D {
	if s.unit != nil && unitFieldCached(s.Prob.Bx, s.Prob.By, gs) {
		if unit := s.unit.vmField(gs, workers); unit != nil {
			out := field.New(unit.NX, unit.NY)
			k := math.Abs(s.Prob.DeltaT)
			for i, v := range unit.V {
				out.V[i] = k * v
			}
			return out
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := field.New(s.Prob.Bx*gs, s.Prob.By*gs)
	batches := s.planeBatches()
	samplers := make(map[*rom.ROM]*rom.PlaneSampler, 2)
	for _, b := range batches {
		if samplers[b.r] == nil {
			samplers[b.r] = b.r.NewPlaneSampler(gs)
		}
	}
	workers = min(workers, len(batches))

	// Per-worker scratch, indexed by ForEach's worker number and reused
	// across that worker's batches.
	type scratch struct {
		u, q [rom.PlaneBatch][]float64
		dt   [rom.PlaneBatch]float64
		vm   []float64
	}
	scr := make([]scratch, workers)
	sparse.ForEach(len(batches), workers, func(w, i int) {
		b, sc := batches[i], &scr[w]
		if sc.vm == nil {
			sc.vm = make([]float64, gs*gs)
		}
		n := len(b.blocks)
		for k, blk := range b.blocks {
			sc.q[k] = s.BlockDoFs(blk[0], blk[1])
			sc.dt[k] = s.Prob.blockDeltaT(blk[0], blk[1])
			if nd := len(b.r.BasisT); len(sc.u[k]) < nd {
				sc.u[k] = make([]float64, nd)
			}
		}
		b.r.ReconstructPlane(sc.u[:n], sc.q[:n], sc.dt[:n])
		for k, blk := range b.blocks {
			samplers[b.r].VonMises(sc.vm, sc.u[k], sc.dt[k])
			for gy := 0; gy < gs; gy++ {
				dst := (blk[1]*gs+gy)*out.NX + blk[0]*gs
				copy(out.V[dst:dst+gs], sc.vm[gy*gs:(gy+1)*gs])
			}
		}
	})
	return out
}

// planeBatch is up to rom.PlaneBatch blocks (bx, by) sharing one ROM.
type planeBatch struct {
	r      *rom.ROM
	blocks [][2]int
}

// planeBatches groups the blocks by ROM, in row-major order, into batches
// of rom.PlaneBatch; each ROM's last batch may be short.
func (s *Solution) planeBatches() []planeBatch {
	var batches []planeBatch
	open := make(map[*rom.ROM]int, 2)
	for by := 0; by < s.Prob.By; by++ {
		for bx := 0; bx < s.Prob.Bx; bx++ {
			r := s.blockROM(bx, by)
			i, ok := open[r]
			if !ok || len(batches[i].blocks) == rom.PlaneBatch {
				i = len(batches)
				open[r] = i
				batches = append(batches, planeBatch{r: r, blocks: make([][2]int, 0, rom.PlaneBatch)})
			}
			batches[i].blocks = append(batches[i].blocks, [2]int{bx, by})
		}
	}
	return batches
}

// StressAt evaluates the reconstructed stress tensor (Voigt) at a global
// physical point, reconstructing only the fine element that contains it.
func (s *Solution) StressAt(p mesh.Vec3) [6]float64 {
	bx, by, local := s.locate(p)
	return s.blockROM(bx, by).StressAt(s.BlockDoFs(bx, by), s.Prob.blockDeltaT(bx, by), local)
}

// locate maps a global point to its block and block-local coordinates.
func (s *Solution) locate(p mesh.Vec3) (bx, by int, local mesh.Vec3) {
	pitch := s.Prob.ROM.Spec.Geom.Pitch
	bx = int(p.X / pitch)
	by = int(p.Y / pitch)
	if bx < 0 {
		bx = 0
	}
	if bx >= s.Prob.Bx {
		bx = s.Prob.Bx - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= s.Prob.By {
		by = s.Prob.By - 1
	}
	local = mesh.Vec3{X: p.X - float64(bx)*pitch, Y: p.Y - float64(by)*pitch, Z: p.Z}
	return bx, by, local
}

// DisplacementAt evaluates the reconstructed displacement at a global
// physical point (the block containing it is located first), reconstructing
// only the fine element that contains it.
func (s *Solution) DisplacementAt(p mesh.Vec3) [3]float64 {
	bx, by, local := s.locate(p)
	return s.blockROM(bx, by).DisplacementAt(s.BlockDoFs(bx, by), s.Prob.blockDeltaT(bx, by), local)
}
