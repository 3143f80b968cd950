// Package rom implements the one-shot local stage of MORE-Stress (§4.2):
// reduced-order modeling of a TSV unit block. For a given geometry/material
// configuration it solves one Dirichlet local problem per surface-node
// displacement component (the boundary displacement being the corresponding
// 3-D Lagrange interpolation function) plus one thermal problem, yielding
// the local basis functions f_0…f_{n−1}, f_T, and projects the fine-mesh
// operator onto them to form the dense element stiffness A_elem (Eq. 18) and
// element load b_elem (Eq. 19) consumed by the global stage.
package rom

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fem"
	"repro/internal/lagrange"
	"repro/internal/linalg"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// Spec configures a unit-block reduced-order model.
type Spec struct {
	// Geom is the TSV geometry (pitch defines the block footprint).
	Geom mesh.TSVGeometry
	// Mats supplies via/liner/bulk materials.
	Mats material.TSVSet
	// Res controls the fine mesh of the block.
	Res mesh.BlockResolution
	// Nodes is (nx, ny, nz), the Lagrange interpolation node counts per
	// axis (paper default (4,4,4)).
	Nodes [3]int
	// WithVia distinguishes a TSV block (true) from a "dummy" pure-silicon
	// block (§4.4). It is consulted only when Kind is KindTSV (the zero
	// value).
	WithVia bool
	// Kind selects a non-default fine structure (pillar, annular, …),
	// exercising the paper's §6 claim that the method is structure-agnostic.
	Kind mesh.BlockKind
	// Quadratic switches the local fine discretization to 20-node
	// serendipity hexahedra (the commercial element class); the global
	// stage is unchanged — only the local basis functions become more
	// accurate.
	Quadratic bool
}

// kind resolves the effective structure kind of the spec.
func (s Spec) kind() mesh.BlockKind {
	if s.Kind != mesh.KindTSV {
		return s.Kind
	}
	if !s.WithVia {
		return mesh.KindDummy
	}
	return mesh.KindTSV
}

// PaperSpec returns the paper's configuration for the given pitch:
// h=50, d=5, t=0.5 µm, Cu/SiO2/Si, (4,4,4) interpolation nodes.
func PaperSpec(pitch float64, res mesh.BlockResolution) Spec {
	return Spec{
		Geom:    mesh.PaperGeometry(pitch),
		Mats:    material.DefaultTSVSet(),
		Res:     res,
		Nodes:   [3]int{4, 4, 4},
		WithVia: true,
	}
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if err := s.Geom.Validate(); err != nil {
		return err
	}
	if err := s.Mats.Validate(); err != nil {
		return err
	}
	for _, n := range s.Nodes {
		if n < 2 {
			return fmt.Errorf("rom: each axis needs at least 2 interpolation nodes, got %v", s.Nodes)
		}
	}
	return nil
}

// ROM is a built reduced-order model of a unit block.
type ROM struct {
	Spec Spec
	// Surf enumerates the Lagrange surface nodes; element DoF i corresponds
	// to surface node i/3, component i%3.
	Surf *lagrange.SurfaceNodes
	// Grid and Model describe the fine mesh used for reconstruction.
	Grid  *mesh.Grid
	Model *fem.Model
	// Quad is set instead of trilinear recovery when Spec.Quadratic.
	Quad *fem.QuadModel
	// N is the number of element DoFs (Eq. 16).
	N int
	// Aelem is the n×n dense element stiffness (Eq. 18).
	Aelem *linalg.Dense
	// Belem is the n-vector element load for ΔT = 1 (Eq. 19).
	Belem []float64
	// Basis holds the local basis functions f_i as full fine-mesh
	// displacement vectors; BasisT is the thermal basis f_T.
	Basis  [][]float64
	BasisT []float64
	// Stats from the build.
	Stats BuildStats
}

// BuildStats records the cost of the one-shot local stage.
type BuildStats struct {
	BuildTime   time.Duration
	FineDoFs    int
	FreeDoFs    int
	FactorNNZ   int
	LocalSolves int
	MemoryBytes int64
}

// Build runs the one-shot local stage with the given worker count
// (0 = GOMAXPROCS).
func Build(spec Spec, workers int) (*ROM, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	grid, err := mesh.NewBlock(spec.Geom, spec.Res, spec.kind())
	if err != nil {
		return nil, err
	}
	model := &fem.Model{Grid: grid, Mats: fem.TSVMats(spec.Mats)}
	var quad *fem.QuadModel
	var asm *fem.Assembled
	var nn int
	nodeCoord := grid.NodeCoord
	onBoundary := grid.OnBoundary
	if spec.Quadratic {
		quad = fem.NewQuadModel(grid, model.Mats)
		asm, err = quad.Assemble(workers)
		nn = quad.NumNodes()
		nodeCoord = quad.NodeCoord
		onBoundary = quad.OnBoundary
	} else {
		asm, err = model.Assemble(workers)
		nn = grid.NumNodes()
	}
	if err != nil {
		return nil, err
	}

	// Boundary DoFs: every fine node on any face of the block.
	isBC := make([]bool, 3*nn)
	for n := 0; n < nn; n++ {
		if onBoundary(n) {
			isBC[3*n] = true
			isBC[3*n+1] = true
			isBC[3*n+2] = true
		}
	}
	red, err := fem.Reduce(asm.K, asm.F, isBC)
	if err != nil {
		return nil, err
	}
	chol, err := solver.NewCholesky(red.Aff)
	if err != nil {
		return nil, fmt.Errorf("rom: local factorization failed: %w", err)
	}

	surf := lagrange.NewSurfaceNodes(spec.Nodes[0], spec.Nodes[1], spec.Nodes[2],
		spec.Geom.Pitch, spec.Geom.Pitch, spec.Geom.Height)
	n := surf.NumDoFs()

	// Interpolation matrix restricted to fine boundary nodes: for each
	// boundary fine node (one per 3 consecutive BC DoFs), the value of
	// every surface-node basis function (Eq. 10).
	nbc := len(red.BCIdx)
	if nbc%3 != 0 {
		return nil, fmt.Errorf("rom: boundary DoF count %d not divisible by 3", nbc)
	}
	bcNodes := nbc / 3
	lmat := make([][]float64, bcNodes)
	for bn := 0; bn < bcNodes; bn++ {
		full := int(red.BCIdx[3*bn])
		node := full / 3
		c := nodeCoord(node)
		lmat[bn] = surf.EvalAll(c.X, c.Y, c.Z)
	}

	// Solve the n local problems (ΔT = 0, unit Lagrange boundary) and the
	// thermal problem (ΔT = 1, zero boundary), task-parallel as in §4.2.
	basis := make([][]float64, n)
	var basisT []float64
	parallelFor(n+1, workers, func(i int) {
		if i == n {
			basisT = red.Expand(chol.Solve(red.RHS(1, nil)), nil)
			return
		}
		surfNode, comp := i/3, i%3
		ubc := make([]float64, nbc)
		for bn := 0; bn < bcNodes; bn++ {
			v := lmat[bn][surfNode]
			if v != 0 {
				ubc[3*bn+comp] = v
			}
		}
		rhs := red.RHS(0, ubc)
		xf := chol.Solve(rhs)
		basis[i] = red.Expand(xf, ubc)
	})

	// Project: A_elem[i][j] = f_iᵀ·K·f_j (Eq. 18), b_elem[i] = f_iᵀ·F
	// (Eq. 19). Compute W_i = K·f_i once per basis vector, in parallel.
	ndof := 3 * nn
	w := make([][]float64, n)
	parallelFor(n, workers, func(i int) {
		w[i] = make([]float64, ndof)
		asm.K.MulVec(w[i], basis[i])
	})
	aelem := linalg.NewDense(n, n)
	belem := make([]float64, n)
	parallelFor(n, workers, func(i int) {
		for j := i; j < n; j++ {
			v := linalg.Dot(basis[i], w[j])
			aelem.Set(i, j, v)
			aelem.Set(j, i, v)
		}
		belem[i] = linalg.Dot(basis[i], asm.F)
	})
	aelem.Symmetrize()

	r := &ROM{
		Spec: spec, Surf: surf, Grid: grid, Model: model, Quad: quad,
		N: n, Aelem: aelem, Belem: belem,
		Basis: basis, BasisT: basisT,
		Stats: BuildStats{
			BuildTime:   time.Since(start),
			FineDoFs:    ndof,
			FreeDoFs:    red.NFree(),
			FactorNNZ:   chol.NNZ(),
			LocalSolves: n + 1,
		},
	}
	r.Stats.MemoryBytes = r.memoryBytes()
	return r, nil
}

func (r *ROM) memoryBytes() int64 {
	var b int64
	for _, f := range r.Basis {
		b += int64(len(f)) * 8
	}
	b += int64(len(r.BasisT)) * 8
	b += int64(len(r.Aelem.Data))*8 + int64(len(r.Belem))*8
	return b
}

// Reconstruct assembles the fine-mesh displacement field of a block from
// its element DoF values q (length N) and the thermal load (Eq. 15):
// u = ΔT·f_T + Σ q_i·f_i.
func (r *ROM) Reconstruct(q []float64, deltaT float64) []float64 {
	if len(q) != r.N {
		panic(fmt.Sprintf("rom: Reconstruct got %d DoFs, want %d", len(q), r.N))
	}
	u := make([]float64, len(r.BasisT))
	for d, v := range r.BasisT {
		u[d] = deltaT * v
	}
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		linalg.Axpy(qi, r.Basis[i], u)
	}
	return u
}

// StressAtPoint recovers the stress tensor from a reconstructed fine field
// at a block-local point, using the block's discretization.
func (r *ROM) StressAtPoint(u []float64, deltaT float64, p mesh.Vec3) [6]float64 {
	if r.Quad != nil {
		return r.Quad.StressAtPoint(u, deltaT, p)
	}
	return r.Model.StressAtPoint(u, deltaT, p)
}

// DisplacementAtPoint interpolates a reconstructed fine field at a
// block-local point.
func (r *ROM) DisplacementAtPoint(u []float64, p mesh.Vec3) [3]float64 {
	if r.Quad != nil {
		return r.Quad.DisplacementAtPoint(u, p)
	}
	return r.Model.DisplacementAtPoint(u, p)
}

// SampleVM evaluates the von Mises stress on a gs×gs grid over the plane
// z = zCut of the block (local coordinates), row-major with x fastest. The
// grid points are cell centers of the gs×gs partition, matching the gridded
// comparison convention of §5.2.
func (r *ROM) SampleVM(u []float64, deltaT float64, zCut float64, gs int) []float64 {
	out := make([]float64, gs*gs)
	p := r.Spec.Geom.Pitch
	for gy := 0; gy < gs; gy++ {
		y := (float64(gy) + 0.5) * p / float64(gs)
		for gx := 0; gx < gs; gx++ {
			x := (float64(gx) + 0.5) * p / float64(gs)
			s := r.StressAtPoint(u, deltaT, mesh.Vec3{X: x, Y: y, Z: zCut})
			out[gy*gs+gx] = fem.VonMises(s)
		}
	}
	return out
}

// parallelFor runs fn(i) for i in [0, n) on up to workers goroutines.
//
//stressvet:gang -- `workers` goroutines draining the index channel
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
