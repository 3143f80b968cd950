// Package reffem is the ground-truth substitute for the commercial FEM
// baseline (ANSYS in the paper): a conventional finite-element solve of the
// entire TSV array on the full fine mesh — the same discretization the local
// stage uses per block, replicated over every block — with a
// block-Jacobi-3-preconditioned CG solver (the paper likewise sets ANSYS to its
// iterative solver for these model sizes). It also solves sub-models under
// prescribed boundary displacements for scenario 2.
package reffem

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fem"
	"repro/internal/field"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// BCKind selects the boundary condition, mirroring the global-stage kinds.
type BCKind int

const (
	// ClampedTopBottom fixes the top and bottom surfaces (scenario 1).
	ClampedTopBottom BCKind = iota
	// PrescribedBoundary imposes displacements on all outer boundary nodes
	// (sub-model ground truth for scenario 2).
	PrescribedBoundary
)

// Problem describes a full-array reference solve.
type Problem struct {
	Geom mesh.TSVGeometry
	Mats material.TSVSet
	// Res is the per-block fine resolution (must match the ROM's for a fair
	// error comparison).
	Res mesh.BlockResolution
	// Bx, By are the array dimensions in blocks.
	Bx, By int
	// IsDummy marks pure-silicon blocks.
	IsDummy func(bx, by int) bool
	// Kind selects the fine structure in non-dummy blocks (default TSV).
	Kind mesh.BlockKind
	// DeltaT is the thermal load in °C.
	DeltaT float64
	// DeltaTFor optionally overrides DeltaT per block (piecewise-constant
	// nonuniform thermal fields); nil means uniform DeltaT.
	DeltaTFor func(bx, by int) float64
	BC        BCKind
	// BoundaryDisp supplies prescribed boundary displacements for
	// PrescribedBoundary (global µm coordinates).
	BoundaryDisp func(p mesh.Vec3) [3]float64
	// Precond selects the CG preconditioner (default PrecondAuto, which a
	// reference solve takes as block-Jacobi-3, see referencePrecond; the
	// other kinds remain available as ablations). Opt.Precond, when set,
	// wins over this field.
	Precond solver.PrecondKind
	// Quadratic switches the discretization to 20-node serendipity
	// hexahedra (the ANSYS SOLID186 element class) for a higher-fidelity
	// ground truth on the same mesh. Not compatible with DeltaTFor.
	Quadratic bool
	Opt       solver.Options
	Workers   int
}

// Result is a completed reference solve.
type Result struct {
	Prob  *Problem
	Model *fem.Model
	// Quad is set instead of trilinear sampling when Prob.Quadratic.
	Quad *fem.QuadModel
	// U is the full displacement vector on the fine mesh.
	U     []float64
	Stats solver.Stats
	// Timings and sizes for the efficiency comparison.
	AssembleTime, SolveTime time.Duration
	DoFs                    int
	MatrixNNZ               int
}

// stressAt dispatches stress recovery to the active discretization.
func (r *Result) stressAt(deltaT float64, p mesh.Vec3) [6]float64 {
	if r.Quad != nil {
		return r.Quad.StressAtPoint(r.U, deltaT, p)
	}
	return r.Model.StressAtPoint(r.U, deltaT, p)
}

// DisplacementAt interpolates the displacement of the solved problem.
func (r *Result) DisplacementAt(p mesh.Vec3) [3]float64 {
	if r.Quad != nil {
		return r.Quad.DisplacementAtPoint(r.U, p)
	}
	return r.Model.DisplacementAtPoint(r.U, p)
}

// blockDeltaT returns the thermal load of block (bx, by).
func (p *Problem) blockDeltaT(bx, by int) float64 {
	if p.DeltaTFor != nil {
		return p.DeltaTFor(bx, by)
	}
	return p.DeltaT
}

// blockOf returns the block indices containing lateral point (x, y).
func (p *Problem) blockOf(x, y float64) (bx, by int) {
	bx = int(x / p.Geom.Pitch)
	by = int(y / p.Geom.Pitch)
	if bx < 0 {
		bx = 0
	}
	if bx >= p.Bx {
		bx = p.Bx - 1
	}
	if by < 0 {
		by = 0
	}
	if by >= p.By {
		by = p.By - 1
	}
	return bx, by
}

// referencePrecond resolves the preconditioner for a reference solve: the
// legacy Problem.Precond field folds into Opt (which wins when set), and a
// still-unresolved Auto picks block-Jacobi-3 instead of the solver's IC0:
// the full-resolution systems are far larger and sparser than the reduced
// global matrices the auto rule was measured on, and IC0 does not pay off
// there. Shared by the trilinear and quadratic paths.
func referencePrecond(opt solver.Options, legacy solver.PrecondKind) solver.Options {
	if opt.Precond == solver.PrecondAuto {
		opt.Precond = legacy
	}
	if opt.Precond == solver.PrecondAuto {
		opt.Precond = solver.PrecondBlockJacobi3
	}
	return opt
}

// pcgReduced tiles the reduced matrix A_ff into 3×3 blocks and solves it
// with PCG. Both reference models constrain whole nodes, so the dimension
// always tiles. Shared by the trilinear and quadratic paths.
func pcgReduced(red *fem.Reduced, rhs []float64, opt solver.Options) ([]float64, solver.Stats, error) {
	aff, err := sparse.NewBCSR(red.Aff)
	if err != nil {
		return nil, solver.Stats{}, err
	}
	return solver.PCG(aff, rhs, nil, opt)
}

// Solve assembles and solves the full fine-mesh array problem.
func Solve(p *Problem) (*Result, error) {
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	grid, err := mesh.ArrayGridOf(p.Geom, p.Res, p.Bx, p.By, p.IsDummy, p.Kind)
	if err != nil {
		return nil, err
	}
	model := &fem.Model{Grid: grid, Mats: fem.TSVMats(p.Mats)}
	if p.Quadratic {
		return solveQuadratic(p, grid, model)
	}

	tAsm := time.Now()
	asm, err := model.Assemble(p.Workers)
	if err != nil {
		return nil, err
	}

	nn := grid.NumNodes()
	isBC := make([]bool, 3*nn)
	var bcNodes []int32
	lo, hi := grid.Bounds()
	for n := 0; n < nn; n++ {
		c := grid.NodeCoord(n)
		var fixed bool
		switch p.BC {
		case ClampedTopBottom:
			fixed = c.Z == lo.Z || c.Z == hi.Z //stressvet:allow floatcmp -- grid coordinates are generated exactly; identity match selects boundary planes
		case PrescribedBoundary:
			fixed = grid.OnBoundary(n)
		}
		if fixed {
			isBC[3*n] = true
			isBC[3*n+1] = true
			isBC[3*n+2] = true
			bcNodes = append(bcNodes, int32(n))
		}
	}
	// With a nonuniform thermal field, reassemble the load with the
	// per-element ΔT (block of the element centroid).
	load := asm.F
	loadScale := p.DeltaT
	if p.DeltaTFor != nil {
		load = model.ThermalLoad(p.Workers, func(e int) float64 {
			c := grid.ElemCenter(e)
			return p.blockDeltaT(p.blockOf(c.X, c.Y))
		})
		loadScale = 1
	}
	red, err := fem.Reduce(asm.K, load, isBC)
	if err != nil {
		return nil, err
	}
	var ubc []float64
	if p.BC == PrescribedBoundary {
		if p.BoundaryDisp == nil {
			return nil, fmt.Errorf("reffem: PrescribedBoundary requires BoundaryDisp")
		}
		ubc = make([]float64, len(red.BCIdx))
		for bi, n := range bcNodes {
			d := p.BoundaryDisp(grid.NodeCoord(int(n)))
			ubc[3*bi] = d[0]
			ubc[3*bi+1] = d[1]
			ubc[3*bi+2] = d[2]
		}
	}
	rhs := red.RHS(loadScale, ubc)
	asmTime := time.Since(tAsm)

	tSolve := time.Now()
	opt := p.Opt
	if opt.Workers == 0 {
		opt.Workers = p.Workers
	}
	opt = referencePrecond(opt, p.Precond)
	xf, stats, err := pcgReduced(red, rhs, opt)
	if err != nil {
		return nil, fmt.Errorf("reffem: solve failed: %w", err)
	}
	u := red.Expand(xf, ubc)
	return &Result{
		Prob: p, Model: model, U: u, Stats: stats,
		AssembleTime: asmTime, SolveTime: time.Since(tSolve),
		DoFs: red.NFree(), MatrixNNZ: asm.K.NNZ(),
	}, nil
}

// VMField samples the von Mises stress on the mid-height cut plane with a
// gs×gs grid per block, matching the global-stage sampling positions
// exactly (cell centers of each block's gs×gs partition). The legacy
// parameters must match the solved problem and are retained for signature
// compatibility with older callers.
func (r *Result) VMField(geom mesh.TSVGeometry, bx, by, gs int, deltaT float64, workers int) *field.Grid2D {
	return r.SampleVM(gs, workers)
}

// SampleVM samples the mid-plane von Mises field of the solved problem with
// gs samples per block edge, honoring per-block thermal loads.
//
//stressvet:gang -- `workers` goroutines over disjoint row chunks
func (r *Result) SampleVM(gs, workers int) *field.Grid2D {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := r.Prob
	out := field.New(p.Bx*gs, p.By*gs)
	zCut := p.Geom.Height / 2
	var wg sync.WaitGroup
	rows := out.NY
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for iy := lo; iy < hi; iy++ {
				y := (float64(iy) + 0.5) * p.Geom.Pitch / float64(gs)
				for ix := 0; ix < out.NX; ix++ {
					x := (float64(ix) + 0.5) * p.Geom.Pitch / float64(gs)
					dt := p.blockDeltaT(p.blockOf(x, y))
					s := r.stressAt(dt, mesh.Vec3{X: x, Y: y, Z: zCut})
					out.Set(ix, iy, fem.VonMises(s))
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
