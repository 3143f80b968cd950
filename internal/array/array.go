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
	"runtime"
	"sync"
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
	// solver.DefaultWorkers — the count the OrderingAuto rule resolves
	// against).
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
	// X0 optionally seeds the iterative solvers with an initial guess in
	// reduced free-DoF ordering — the QFree of a previous Solution on the
	// same assembly (warm start). A wrong-length seed is ignored; a seed
	// that makes the solver diverge is retried cold (WarmFallback).
	X0 []float64
	// Factors optionally shares sparse Cholesky factorizations across
	// repeated Direct solves: when set together with FactorKey, the Direct
	// branch asks the cache instead of factoring unconditionally. The
	// reduced global matrix depends only on the ROMs, the array size, the
	// dummy layout, and the BC pattern — not on the thermal load — so
	// batches of Direct solves over one lattice pay the factorization once.
	Factors FactorCache
	// FactorKey identifies the reduced global matrix to Factors. The
	// caller must fold in everything the matrix depends on (ROM content,
	// Bx×By, BC kind, dummy layout); an empty key disables sharing.
	FactorKey string
}

// FactorCache supplies memoized sparse Cholesky factorizations for Direct
// solves. GetOrFactor returns the cached factorization for key, calling
// build (and retaining its result) on the first request. Implementations
// must be safe for concurrent use.
type FactorCache interface {
	GetOrFactor(key string, build func() (*solver.CholFactor, error)) (*solver.CholFactor, error)
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
	// reconstruction needs the ROMs and the ΔT field). Its Assembly and X0
	// are cleared so a retained Solution — e.g. an async job result held
	// for its TTL — does not pin the reduced global matrix or the
	// warm-start seed beyond the solve.
	Prob    *Problem
	Lattice *Lattice
	// Q holds the global surface-node displacements (3 per node).
	Q []float64
	// QFree is the solution in reduced free-DoF ordering — the warm-start
	// seed (Problem.X0) for the next solve on the same assembly. Empty in
	// the degenerate all-constrained case.
	QFree []float64
	// Stats reports the iterative solve, including the resolved
	// preconditioner kind and whether the solve was warm-started.
	Stats solver.Stats
	// Ordering is the symmetric ordering the solve's preconditioner
	// factored under (mirrors Stats.Ordering; OrderingNatural for direct
	// solves, block-Jacobi-3, and the degenerate all-constrained case).
	Ordering solver.OrderingKind
	// Timings of the two global-stage phases. When AssemblyShared is true,
	// AssembleTime covers only the per-scenario RHS build; the matrix
	// assembly was paid once by the shared Assembly (its cost is in
	// Assembly.BuildTime).
	AssembleTime, SolveTime time.Duration
	// AssemblyShared reports that the reduced system came from
	// Problem.Assembly instead of being assembled by this Solve call.
	AssemblyShared bool
	// PrecondShared reports that an iterative solve's preconditioner came
	// from the assembly's per-kind cache (built by an earlier solve on the
	// same lattice) rather than being constructed by this call; the one
	// solve that populates the cache records the cost in
	// Stats.PrecondBuild.
	PrecondShared bool
	// WarmFallback reports that the warm-started solve stalled and the
	// recorded Stats are from the retry, started from zero.
	WarmFallback bool
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
// expands them to a transient CSR only when it factors. The reduced system
// itself is immutable after NewAssembly; the preconditioner cache is
// internally synchronized, so an Assembly is safe to share across concurrent
// Solve calls.
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

	// pmu guards preconds, the lazily built per-(kind, ordering, precision)
	// preconditioner cache.
	pmu      sync.Mutex
	preconds map[precondKey]*assemblyPrecond
}

// precondKey identifies one cached preconditioner: the concrete kind plus,
// for the factorizing kinds, the concrete symmetric ordering and factor
// storage precision the factor was built under (the ordering-invariant
// kinds always cache under OrderingNatural and PrecisionFloat64 so
// spellings share one entry; PrecisionAuto canonicalizes to PrecisionFloat32
// for IC0 because both build the identical float32 factor).
type precondKey struct {
	kind solver.PrecondKind
	ord  solver.OrderingKind
	prec solver.Precision
}

// assemblyPrecond is one cached preconditioner: built once (the Once covers
// concurrent first requests), then shared by every solve on the lattice.
type assemblyPrecond struct {
	once  sync.Once
	m     solver.Preconditioner
	err   error
	build time.Duration
	// ready is set under Assembly.pmu after the build completes, so
	// MemoryBytes can read m without racing the builder.
	ready bool
}

// AssemblyPrecond is the outcome of Assembly.PreconditionerPrec.
type AssemblyPrecond struct {
	// M is the shared preconditioner.
	M solver.Preconditioner
	// Kind is the concrete preconditioner kind (Auto resolved against the
	// reduced system size).
	Kind solver.PrecondKind
	// Ordering is the concrete symmetric ordering the preconditioner was
	// built under (Auto resolved against the reduced system size and the
	// requesting solve's workers; OrderingNatural for the ordering-invariant
	// kinds).
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
// requested kind, ordering and factor precision, building and caching it on
// first use; workers is the requesting solve's parallelism (0 =
// solver.DefaultWorkers), consulted only by the OrderingAuto resolution
// (solver.ResolveOrdering) — a 1-worker solve keeps the natural factor.
// Distinct (kind, ordering, precision) triples cache independently — the
// ordering permutation lives inside the cached factor, so "the ordering +
// permuted factor" is one entry; PrecondAuto and OrderingAuto resolve to
// concrete values first so an explicit request for the resolved pair shares
// the same entry. Only the factorizing kinds are ordering- and
// precision-sensitive; the others cache under OrderingNatural and
// PrecisionFloat64 whatever is requested. For IC0, PrecisionAuto and
// PrecisionFloat32 build the identical float32 factor and so share one cache
// entry, while PrecisionFloat64 caches separately — the float64 factor a
// stalled float32 solve retries against lives next to the float32 factor it
// replaces.
func (a *Assembly) PreconditionerPrec(kind solver.PrecondKind, ord solver.OrderingKind, prec solver.Precision, workers int) (AssemblyPrecond, error) {
	if a.Red == nil {
		return AssemblyPrecond{}, fmt.Errorf("array: assembly has no free DoFs, nothing to precondition")
	}
	resolved := kind.Resolve(a.Red.NFree())
	if resolved == solver.PrecondIC0 {
		ord = solver.ResolveOrdering(ord, a.aff.NRows, workers)
		if prec == solver.PrecisionAuto {
			prec = solver.PrecisionFloat32
		}
	} else {
		ord = solver.OrderingNatural
		prec = solver.PrecisionFloat64
	}
	key := precondKey{kind: resolved, ord: ord, prec: prec}
	a.pmu.Lock()
	e, hit := a.preconds[key]
	if e == nil {
		if a.preconds == nil {
			a.preconds = make(map[precondKey]*assemblyPrecond)
		}
		e = &assemblyPrecond{}
		a.preconds[key] = e
	}
	a.pmu.Unlock()
	e.once.Do(func() {
		t0 := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		e.m, e.err = solver.NewPreconditioner(resolved, ord, prec, a.aff)
		e.build = time.Since(t0)
	})
	a.pmu.Lock()
	e.ready = true
	a.pmu.Unlock()
	if e.err != nil {
		return AssemblyPrecond{Kind: resolved, Ordering: ord}, e.err
	}
	out := AssemblyPrecond{M: e.m, Kind: resolved, Ordering: ord, Precision: solver.PrecisionFloat64, Hit: hit}
	if fp, ok := e.m.(solver.FactorPrecisioned); ok {
		out.Precision = fp.FactorPrecision()
	}
	if !hit {
		out.Build = e.build
	}
	return out, nil
}

// Blocked returns the reduced matrix A_ff as 3×3 tiles (BCSR) — the only
// copy the assembly holds; nil when there are no free DoFs.
func (a *Assembly) Blocked() *sparse.BCSR { return a.aff }

// NewAssembly runs the load-independent part of the global stage for the
// problem: lattice enumeration, the constraint split, and the scatter of
// every block's 3×3 stiffness tiles straight into the reduced A_ff (and,
// under PrescribedBoundary, A_fb) with the unit load b_f. The result is
// bitwise independent of workers. It can be placed in Problem.Assembly for
// every scenario on the same lattice (same ROM content, dimensions, dummy
// layout, and BC kind).
func NewAssembly(p *Problem, workers int) (*Assembly, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	lat := NewLattice(p.Bx, p.By, p.ROM.Spec.Nodes, p.ROM.Spec.Geom.Pitch, p.ROM.Spec.Geom.Height)

	// Dirichlet reduction removes whole nodes: number the free and the
	// constrained nodes apart, each in id order.
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
			freeOf[id], bcOf[id] = int32(nFree), -1
			nFree++
		}
	}
	inc := newIncidence(p, lat)
	aff, pairs := inc.scatter(freeOf, freeOf, nFree, nFree, workers)
	asm := &Assembly{Lat: lat, BC: p.BC, BCNodes: bcNodes, AllBC: nFree == 0, NNZ: 9 * pairs}
	if !asm.AllBC {
		red := &fem.Reduced{
			Bf:      inc.unitLoad(freeOf, nFree),
			FreeIdx: make([]int32, 0, 3*nFree),
			BCIdx:   make([]int32, 0, 3*len(bcNodes)),
			NFull:   lat.NumDoFs(),
		}
		for id, fi := range freeOf {
			idx := &red.BCIdx
			if fi >= 0 {
				idx = &red.FreeIdx
			}
			*idx = append(*idx, 3*int32(id), 3*int32(id)+1, 3*int32(id)+2)
		}
		if p.BC == PrescribedBoundary {
			afb, _ := inc.scatter(freeOf, bcOf, nFree, len(bcNodes), workers)
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
// caches. Lazily cached preconditioners count too, so the assembly cache's
// byte budget sees them (it re-sums entry sizes on every insert because of
// exactly this growth).
func (a *Assembly) MemoryBytes() int64 {
	b := int64(4*len(a.Lat.Index)) + int64(24*len(a.Lat.Nodes)) + int64(4*len(a.BCNodes))
	if a.Red != nil {
		b += a.aff.MemoryBytes()
		if a.Red.Afb != nil {
			b += a.Red.Afb.MemoryBytes()
		}
		b += int64(8*len(a.Red.Bf)) + int64(4*(len(a.Red.FreeIdx)+len(a.Red.BCIdx)))
	}
	a.pmu.Lock()
	for _, e := range a.preconds {
		if e.ready && e.err == nil {
			if s, ok := e.m.(solver.Sized); ok {
				b += s.MemoryBytes()
			}
		}
	}
	a.pmu.Unlock()
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
// references a solved result no longer needs: the Assembly (the full
// reduced matrix — post-processing only needs the Lattice, stored on the
// Solution) and the warm-start seed.
func (p *Problem) snapshot() *Problem {
	c := *p
	c.Assembly = nil
	c.X0 = nil
	return &c
}

// Solve runs the global stage: assembly (Eqs. 18–19 outputs scattered by the
// standard procedure) — or reuse of a shared Problem.Assembly — lifting of
// boundary conditions, the (preconditioned, optionally warm-started) solve,
// and returns the global surface-node displacement.
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
	// scenario after it (including the cold retry of a failed warm start).
	// A caller-supplied Opt.M wins over the cache.
	precondShared := false
	drewPrec := solver.PrecisionFloat64
	var precondBuild time.Duration
	if p.Solver != Direct && opt.M == nil {
		ap, err := asm.PreconditionerPrec(opt.Precond, opt.Ordering, opt.Precision, opt.Workers)
		if err != nil {
			return nil, fmt.Errorf("array: global preconditioner: %w", err)
		}
		opt.M = ap.M
		opt.Precond = ap.Kind
		opt.Ordering = ap.Ordering
		precondShared = ap.Hit
		drewPrec = ap.Precision
		precondBuild = ap.Build
	}
	x0 := p.X0
	if len(x0) != len(rhs) {
		x0 = nil
	}
	solve := func(seed []float64) (qf []float64, stats solver.Stats, err error) {
		switch p.Solver {
		case CG:
			return solver.PCG(asm.aff, rhs, seed, opt)
		case Direct:
			factor := func() (*solver.CholFactor, error) { return solver.NewCholesky(asm.aff.ToCSR()) }
			var chol *solver.CholFactor
			if p.Factors != nil && p.FactorKey != "" {
				chol, err = p.Factors.GetOrFactor(p.FactorKey, factor)
			} else {
				chol, err = factor()
			}
			if err != nil {
				return nil, stats, err
			}
			return chol.Solve(rhs), solver.Stats{Converged: true, Ordering: solver.OrderingNatural, Precision: solver.PrecisionFloat64}, nil
		default:
			return solver.GMRES(asm.aff, rhs, seed, opt)
		}
	}
	qf, stats, err := solve(x0)
	// One retry after a stall (GMRES or PCG): from zero if the attempt was
	// seeded, and against the assembly's float64 factor — the sibling cache
	// entry of the concrete kind/ordering drawn above, built once per
	// lattice — if the factor was float32. A cold float64 stall has nothing
	// to change; structural failures (breakdowns) are not stalls.
	stalled := errors.Is(err, solver.ErrStalled)
	fellBack := stalled && x0 != nil
	precFellBack := stalled && drewPrec == solver.PrecisionFloat32
	if fellBack {
		x0 = nil
	}
	if precFellBack {
		ap, perr := asm.PreconditionerPrec(opt.Precond, opt.Ordering, solver.PrecisionFloat64, opt.Workers)
		if perr != nil {
			return nil, fmt.Errorf("array: float64 fallback preconditioner: %w (after %v)", perr, err)
		}
		opt.M = ap.M
		opt.Precision = solver.PrecisionFloat64
		precondBuild += ap.Build
	}
	if fellBack || precFellBack {
		qf, stats, err = solve(x0)
	}
	if err != nil {
		return nil, fmt.Errorf("array: global solve failed: %w", err)
	}
	if opt.Work != nil {
		// A workspace-backed solve returns a vector owned by the workspace,
		// valid only until its next solve; QFree is retained (seed caches,
		// post-processing), so detach it.
		qf = append([]float64(nil), qf...)
	}
	if p.Solver != Direct {
		// The solver saw a prebuilt M, so its own PrecondBuild is zero;
		// surface the cache's build cost on the solve that paid it.
		stats.PrecondBuild = precondBuild
	}
	q := red.Expand(qf, ubc)
	solveTime := time.Since(tSolve)

	return &Solution{
		Prob: snap, Lattice: lat, Q: q, QFree: qf, Stats: stats,
		Ordering:     stats.Ordering,
		Precision:    stats.Precision,
		AssembleTime: asmTime, SolveTime: solveTime,
		AssemblyShared: shared, WarmFallback: fellBack,
		PrecondShared:     precondShared,
		PrecisionFallback: precFellBack,
		GlobalDoFs:        ndof, MatrixNNZ: asm.NNZ,
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
// per pass over its basis slab; the result is bitwise equal to sampling
// each block's full Reconstruct with SampleVM. Parallel over batches.
//
//stressvet:gang -- fixed pool of `workers` goroutines draining the batch channel
func (s *Solution) VMField(gs int, workers int) *field.Grid2D {
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

	jobs := make(chan planeBatch)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var u, q [rom.PlaneBatch][]float64
			var dt [rom.PlaneBatch]float64
			vm := make([]float64, gs*gs)
			for b := range jobs {
				n := len(b.blocks)
				for k, blk := range b.blocks {
					q[k] = s.BlockDoFs(blk[0], blk[1])
					dt[k] = s.Prob.blockDeltaT(blk[0], blk[1])
					if nd := len(b.r.BasisT); len(u[k]) < nd {
						u[k] = make([]float64, nd)
					}
				}
				b.r.ReconstructPlane(u[:n], q[:n], dt[:n])
				for k, blk := range b.blocks {
					samplers[b.r].VonMises(vm, u[k], dt[k])
					for gy := 0; gy < gs; gy++ {
						dst := (blk[1]*gs+gy)*out.NX + blk[0]*gs
						copy(out.V[dst:dst+gs], vm[gy*gs:(gy+1)*gs])
					}
				}
			}
		}()
	}
	for _, b := range batches {
		jobs <- b
	}
	close(jobs)
	wg.Wait()
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
