package rom

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/fem"
	"repro/internal/lagrange"
	"repro/internal/linalg"
	"repro/internal/mesh"
)

// romWire is the gob wire format of a ROM: everything needed to reconstruct
// the model without re-running the local stage.
type romWire struct {
	Spec   Spec
	Xs, Ys []float64
	Zs     []float64
	MatID  []uint8
	N      int
	Aelem  []float64
	Belem  []float64
	Basis  [][]float64
	BasisT []float64
	Stats  BuildStats
}

// Save writes the ROM in gob format. A saved ROM lets the global stage run
// on new array sizes, thermal loads, and locations without repeating the
// one-shot local stage (§4.1).
func (r *ROM) Save(w io.Writer) error {
	wire := romWire{
		Spec: r.Spec,
		Xs:   r.Grid.Xs, Ys: r.Grid.Ys, Zs: r.Grid.Zs,
		MatID: r.Grid.MatID,
		N:     r.N,
		Aelem: r.Aelem.Data, Belem: r.Belem,
		Basis: r.Basis, BasisT: r.BasisT,
		Stats: r.Stats,
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Load reads a ROM previously written by Save.
func Load(rd io.Reader) (*ROM, error) {
	var wire romWire
	if err := gob.NewDecoder(rd).Decode(&wire); err != nil {
		return nil, fmt.Errorf("rom: decode: %w", err)
	}
	grid, err := mesh.NewGrid(wire.Xs, wire.Ys, wire.Zs)
	if err != nil {
		return nil, fmt.Errorf("rom: corrupt grid: %w", err)
	}
	if len(wire.MatID) != grid.NumElems() {
		return nil, fmt.Errorf("rom: material table has %d entries for %d elements", len(wire.MatID), grid.NumElems())
	}
	grid.MatID = wire.MatID
	surf := lagrange.NewSurfaceNodes(wire.Spec.Nodes[0], wire.Spec.Nodes[1], wire.Spec.Nodes[2],
		wire.Spec.Geom.Pitch, wire.Spec.Geom.Pitch, wire.Spec.Geom.Height)
	if surf.NumDoFs() != wire.N || len(wire.Aelem) != wire.N*wire.N || len(wire.Belem) != wire.N || len(wire.Basis) != wire.N {
		return nil, fmt.Errorf("rom: inconsistent DoF counts in saved model")
	}
	aelem := &linalg.Dense{Rows: wire.N, Cols: wire.N, Data: wire.Aelem}
	model := &fem.Model{Grid: grid, Mats: fem.TSVMats(wire.Spec.Mats)}
	var quad *fem.QuadModel
	if wire.Spec.Quadratic {
		quad = fem.NewQuadModel(grid, model.Mats)
	}
	ndof := 3 * grid.NumNodes()
	if quad != nil {
		ndof = quad.NumDoFs()
	}
	if len(wire.BasisT) != ndof {
		return nil, fmt.Errorf("rom: thermal basis has %d DoFs, mesh has %d", len(wire.BasisT), ndof)
	}
	for i, f := range wire.Basis {
		if len(f) != ndof {
			return nil, fmt.Errorf("rom: basis %d has %d DoFs, mesh has %d", i, len(f), ndof)
		}
	}
	r := &ROM{
		Spec: wire.Spec, Surf: surf, Grid: grid,
		Model: model, Quad: quad,
		N: wire.N, Aelem: aelem, Belem: wire.Belem,
		Basis: wire.Basis, BasisT: wire.BasisT,
		Stats: wire.Stats,
	}
	r.finish()
	return r, nil
}
