package reffem

import (
	"fmt"
	"time"

	"repro/internal/fem"
	"repro/internal/mesh"
)

// solveQuadratic runs the reference solve with 20-node serendipity elements
// on the same grid (the commercial-grade element class).
func solveQuadratic(p *Problem, grid *mesh.Grid, model *fem.Model) (*Result, error) {
	if p.DeltaTFor != nil {
		return nil, fmt.Errorf("reffem: quadratic reference does not support per-block thermal loads")
	}
	qm := fem.NewQuadModel(grid, model.Mats)

	tAsm := time.Now()
	asm, err := qm.Assemble(p.Workers)
	if err != nil {
		return nil, err
	}
	nn := qm.NumNodes()
	isBC := make([]bool, 3*nn)
	lo, hi := grid.Bounds()
	for id := 0; id < nn; id++ {
		if !asm.ActiveNode[id] {
			isBC[3*id], isBC[3*id+1], isBC[3*id+2] = true, true, true
			continue
		}
		c := qm.NodeCoord(id)
		var fixed bool
		switch p.BC {
		case ClampedTopBottom:
			fixed = c.Z == lo.Z || c.Z == hi.Z //stressvet:allow floatcmp -- grid coordinates are generated exactly; identity match selects boundary planes
		case PrescribedBoundary:
			fixed = qm.OnBoundary(id)
		}
		if fixed {
			isBC[3*id], isBC[3*id+1], isBC[3*id+2] = true, true, true
		}
	}
	red, err := fem.Reduce(asm.K, asm.F, isBC)
	if err != nil {
		return nil, err
	}
	var ubc []float64
	if p.BC == PrescribedBoundary {
		if p.BoundaryDisp == nil {
			return nil, fmt.Errorf("reffem: PrescribedBoundary requires BoundaryDisp")
		}
		ubc = make([]float64, len(red.BCIdx))
		for bi, full := range red.BCIdx {
			id := int(full / 3)
			if !asm.ActiveNode[id] {
				continue
			}
			d := p.BoundaryDisp(qm.NodeCoord(id))
			ubc[bi] = d[full%3]
		}
	}
	rhs := red.RHS(p.DeltaT, ubc)
	asmTime := time.Since(tAsm)

	tSolve := time.Now()
	opt := p.Opt
	if opt.Workers == 0 {
		opt.Workers = p.Workers
	}
	opt = referencePrecond(opt, p.Precond)
	xf, stats, err := pcgReduced(red, rhs, opt)
	if err != nil {
		return nil, fmt.Errorf("reffem: quadratic solve failed: %w", err)
	}
	u := red.Expand(xf, ubc)
	return &Result{
		Prob: p, Model: model, Quad: qm, U: u, Stats: stats,
		AssembleTime: asmTime, SolveTime: time.Since(tSolve),
		DoFs: red.NFree(), MatrixNNZ: asm.K.NNZ(),
	}, nil
}
