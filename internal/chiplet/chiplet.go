// Package chiplet models the scenario-2 package (Fig. 5(b)): a composite
// substrate carrying a silicon interposer carrying a silicon die. A coarse
// FEM solve of the whole (TSV-free) package under thermal load produces the
// global warpage field; the sub-modeling procedure (§4.4) then extracts
// displacements on the boundary of an embedded TSV-array sub-model and
// imposes them on the global stage (or on the reference fine solve).
package chiplet

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/fem"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Stack describes the package geometry (all µm). Layers are centered
// laterally on one another; z runs upward from the substrate bottom.
type Stack struct {
	SubstrateSize, SubstrateThick       float64
	InterposerSize, InterposerThick     float64
	DieSize, DieThick                   float64
	SubstrateMat, InterposerMat, DieMat material.Material
}

// DefaultStack returns the chiplet used by the scenario-2 experiments: a
// 2000 µm composite substrate, a 1400 µm silicon interposer whose 50 µm
// thickness hosts the TSVs, and an 800 µm silicon die.
func DefaultStack() Stack {
	return Stack{
		SubstrateSize: 2000, SubstrateThick: 200,
		InterposerSize: 1400, InterposerThick: 50,
		DieSize: 800, DieThick: 100,
		SubstrateMat:  material.Composite,
		InterposerMat: material.Silicon,
		DieMat:        material.Silicon,
	}
}

// Validate checks the stack geometry.
func (s Stack) Validate() error {
	if s.SubstrateSize <= 0 || s.SubstrateThick <= 0 || s.InterposerSize <= 0 ||
		s.InterposerThick <= 0 || s.DieSize <= 0 || s.DieThick <= 0 {
		return fmt.Errorf("chiplet: all dimensions must be positive: %+v", s)
	}
	if s.DieSize > s.InterposerSize || s.InterposerSize > s.SubstrateSize {
		return fmt.Errorf("chiplet: expected die <= interposer <= substrate laterally")
	}
	return nil
}

// InterposerZ returns the z-range [lo, hi] of the interposer layer.
func (s Stack) InterposerZ() (lo, hi float64) {
	return s.SubstrateThick, s.SubstrateThick + s.InterposerThick
}

// Resolution controls the coarse package mesh.
type Resolution struct {
	// Lateral is the approximate number of cells across the substrate edge.
	Lateral int
	// SubZ, IntZ, DieZ are cell counts through each layer.
	SubZ, IntZ, DieZ int
}

// DefaultResolution is the coarse-model density used by the experiments.
func DefaultResolution() Resolution {
	return Resolution{Lateral: 24, SubZ: 3, IntZ: 2, DieZ: 2}
}

// Material ids of the package mesh.
const (
	matSubstrate  uint8 = 0
	matInterposer uint8 = 1
	matDie        uint8 = 2
)

// Coarse is a solved coarse package model.
type Coarse struct {
	Stack     Stack
	Model     *fem.Model
	U         []float64
	DeltaT    float64
	Stats     solver.Stats
	SolveTime time.Duration
}

// SegmentedAxis builds an axis hitting every breakpoint exactly, subdividing
// each segment into cells of roughly the target size.
func SegmentedAxis(breaks []float64, targetCell float64) []float64 {
	var out []float64
	out = append(out, breaks[0])
	for i := 0; i+1 < len(breaks); i++ {
		lo, hi := breaks[i], breaks[i+1]
		n := int(math.Max(1, math.Round((hi-lo)/targetCell)))
		for c := 1; c <= n; c++ {
			out = append(out, lo+(hi-lo)*float64(c)/float64(n))
		}
	}
	return out
}

// BuildGrid meshes the package with void elements outside the stepped
// stack. extraBreaks adds lateral grid lines (e.g. the sub-model boundary)
// so that sub-model faces align with coarse element faces.
func BuildGrid(st Stack, res Resolution, extraBreaks []float64) (*mesh.Grid, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	intLo := (st.SubstrateSize - st.InterposerSize) / 2
	intHi := intLo + st.InterposerSize
	dieLo := (st.SubstrateSize - st.DieSize) / 2
	dieHi := dieLo + st.DieSize

	breakSet := map[float64]struct{}{
		0: {}, st.SubstrateSize: {},
		intLo: {}, intHi: {},
		dieLo: {}, dieHi: {},
	}
	for _, b := range extraBreaks {
		if b > 0 && b < st.SubstrateSize {
			breakSet[b] = struct{}{}
		}
	}
	breaks := make([]float64, 0, len(breakSet))
	for b := range breakSet {
		breaks = append(breaks, b)
	}
	sortFloats(breaks)

	target := st.SubstrateSize / float64(res.Lateral)
	lateral := SegmentedAxis(breaks, target)

	z0 := 0.0
	z1 := st.SubstrateThick
	z2 := z1 + st.InterposerThick
	z3 := z2 + st.DieThick
	zs := SegmentedAxis([]float64{z0, z1}, (z1-z0)/float64(res.SubZ))
	zs = append(zs, SegmentedAxis([]float64{z1, z2}, (z2-z1)/float64(res.IntZ))[1:]...)
	zs = append(zs, SegmentedAxis([]float64{z2, z3}, (z3-z2)/float64(res.DieZ))[1:]...)

	g, err := mesh.NewGrid(lateral, append([]float64(nil), lateral...), zs)
	if err != nil {
		return nil, err
	}
	g.AssignMaterials(func(c mesh.Vec3) uint8 {
		switch {
		case c.Z < z1:
			return matSubstrate
		case c.Z < z2:
			if c.X > intLo && c.X < intHi && c.Y > intLo && c.Y < intHi {
				return matInterposer
			}
			return mesh.VoidMaterial
		default:
			if c.X > dieLo && c.X < dieHi && c.Y > dieLo && c.Y < dieHi {
				return matDie
			}
			return mesh.VoidMaterial
		}
	})
	return g, nil
}

// SolveCoarse runs the coarse thermal-warpage solve of the TSV-free package.
// Rigid-body motion is removed with a 3-2-1 constraint set on the substrate
// bottom face, leaving the structure otherwise free to warp.
func SolveCoarse(st Stack, res Resolution, deltaT float64, extraBreaks []float64, opt solver.Options, workers int) (*Coarse, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	grid, err := BuildGrid(st, res, extraBreaks)
	if err != nil {
		return nil, err
	}
	model := &fem.Model{
		Grid: grid,
		Mats: []material.Material{matSubstrate: st.SubstrateMat, matInterposer: st.InterposerMat, matDie: st.DieMat},
	}
	start := time.Now()
	asm, err := model.Assemble(workers)
	if err != nil {
		return nil, err
	}

	nn := grid.NumNodes()
	isBC := make([]bool, 3*nn)
	for n, act := range asm.ActiveNode {
		if !act {
			isBC[3*n] = true
			isBC[3*n+1] = true
			isBC[3*n+2] = true
		}
	}
	// 3-2-1 constraints on the bottom face: center pins x/y/z, a point along
	// +x pins y/z (blocking rotation about x and z), a point along +y pins z
	// (blocking rotation about y).
	half := st.SubstrateSize / 2
	a := nearestNode(grid, mesh.Vec3{X: half, Y: half, Z: 0})
	b := nearestNode(grid, mesh.Vec3{X: st.SubstrateSize * 0.9, Y: half, Z: 0})
	c := nearestNode(grid, mesh.Vec3{X: half, Y: st.SubstrateSize * 0.9, Z: 0})
	isBC[3*a], isBC[3*a+1], isBC[3*a+2] = true, true, true
	isBC[3*b+1], isBC[3*b+2] = true, true
	isBC[3*c+2] = true

	red, err := fem.Reduce(asm.K, asm.F, isBC)
	if err != nil {
		return nil, err
	}
	rhs := red.RHS(deltaT, nil)
	if opt.Workers == 0 {
		opt.Workers = workers
	}
	if opt.Precond == solver.PrecondAuto {
		// The coarse package model is a large sparse fine-mesh system, far
		// sparser than the reduced global matrices the auto rule was
		// measured on: auto would pick IC0, which does not pay off here.
		opt.Precond = solver.PrecondBlockJacobi3
	}
	// The 3-2-1 constraints remove 6 DoFs, so A_ff still tiles, though the
	// tiles after the first constrained node straddle two nodes.
	aff, err := sparse.NewBCSR(red.Aff)
	if err != nil {
		return nil, fmt.Errorf("chiplet: coarse system: %w", err)
	}
	xf, stats, err := solver.PCG(aff, rhs, nil, opt)
	if err != nil {
		return nil, fmt.Errorf("chiplet: coarse solve failed: %w", err)
	}
	u := red.Expand(xf, nil)
	return &Coarse{Stack: st, Model: model, U: u, DeltaT: deltaT, Stats: stats, SolveTime: time.Since(start)}, nil
}

// DisplacementAt interpolates the coarse displacement at a package-space
// point (the sub-modeling boundary transfer).
func (c *Coarse) DisplacementAt(p mesh.Vec3) [3]float64 {
	return c.Model.DisplacementAtPoint(c.U, p)
}

// StressAt recovers the coarse stress tensor at a package-space point (used
// as the background for the superposition baseline in scenario 2).
func (c *Coarse) StressAt(p mesh.Vec3) [6]float64 {
	return c.Model.StressAtPoint(c.U, c.DeltaT, p)
}

func nearestNode(g *mesh.Grid, p mesh.Vec3) int {
	best, bestD := 0, math.Inf(1)
	for n := 0; n < g.NumNodes(); n++ {
		c := g.NodeCoord(n)
		d := (c.X-p.X)*(c.X-p.X) + (c.Y-p.Y)*(c.Y-p.Y) + (c.Z-p.Z)*(c.Z-p.Z)
		if d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
