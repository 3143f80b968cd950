package fem

import (
	"fmt"
	"math"

	"repro/internal/material"
	"repro/internal/mesh"
)

// Quadratic (20-node serendipity) hexahedral discretization over the same
// structured grids as the trilinear kernel — the element class used by the
// commercial baseline (ANSYS SOLID186). Nodes live on the half-step lattice
// of the grid: cell corners plus mid-edge points (half-lattice sites with at
// most one odd coordinate).

// quadSigns lists the 20 serendipity nodes in reference coordinates: first
// the 8 corners (VTK order), then the 12 mid-edge nodes (bottom ring, top
// ring, verticals).
var quadSigns = [20][3]float64{
	{-1, -1, -1}, {1, -1, -1}, {1, 1, -1}, {-1, 1, -1},
	{-1, -1, 1}, {1, -1, 1}, {1, 1, 1}, {-1, 1, 1},
	{0, -1, -1}, {1, 0, -1}, {0, 1, -1}, {-1, 0, -1},
	{0, -1, 1}, {1, 0, 1}, {0, 1, 1}, {-1, 0, 1},
	{-1, -1, 0}, {1, -1, 0}, {1, 1, 0}, {-1, 1, 0},
}

// QuadShapeFunctions evaluates the 20 serendipity shape functions at
// (ξ, η, ζ).
func QuadShapeFunctions(xi, eta, zeta float64) [20]float64 {
	var n [20]float64
	for a := 0; a < 20; a++ {
		s := quadSigns[a]
		switch {
		case s[0] == 0:
			n[a] = (1 - xi*xi) * (1 + s[1]*eta) * (1 + s[2]*zeta) / 4
		case s[1] == 0:
			n[a] = (1 + s[0]*xi) * (1 - eta*eta) * (1 + s[2]*zeta) / 4
		case s[2] == 0:
			n[a] = (1 + s[0]*xi) * (1 + s[1]*eta) * (1 - zeta*zeta) / 4
		default:
			n[a] = (1 + s[0]*xi) * (1 + s[1]*eta) * (1 + s[2]*zeta) *
				(s[0]*xi + s[1]*eta + s[2]*zeta - 2) / 8
		}
	}
	return n
}

// QuadShapeGradients evaluates the physical-space gradients for a box
// element of size (hx, hy, hz).
func QuadShapeGradients(xi, eta, zeta, hx, hy, hz float64) [20][3]float64 {
	var d [20][3]float64
	for a := 0; a < 20; a++ {
		s := quadSigns[a]
		var dxi, deta, dzeta float64
		switch {
		case s[0] == 0:
			dxi = -2 * xi * (1 + s[1]*eta) * (1 + s[2]*zeta) / 4
			deta = (1 - xi*xi) * s[1] * (1 + s[2]*zeta) / 4
			dzeta = (1 - xi*xi) * (1 + s[1]*eta) * s[2] / 4
		case s[1] == 0:
			dxi = s[0] * (1 - eta*eta) * (1 + s[2]*zeta) / 4
			deta = (1 + s[0]*xi) * (-2 * eta) * (1 + s[2]*zeta) / 4
			dzeta = (1 + s[0]*xi) * (1 - eta*eta) * s[2] / 4
		case s[2] == 0:
			dxi = s[0] * (1 + s[1]*eta) * (1 - zeta*zeta) / 4
			deta = (1 + s[0]*xi) * s[1] * (1 - zeta*zeta) / 4
			dzeta = (1 + s[0]*xi) * (1 + s[1]*eta) * (-2 * zeta) / 4
		default:
			sum := s[0]*xi + s[1]*eta + s[2]*zeta - 2
			dxi = s[0] * (1 + s[1]*eta) * (1 + s[2]*zeta) * (sum + (1 + s[0]*xi)) / 8
			deta = s[1] * (1 + s[0]*xi) * (1 + s[2]*zeta) * (sum + (1 + s[1]*eta)) / 8
			dzeta = s[2] * (1 + s[0]*xi) * (1 + s[1]*eta) * (sum + (1 + s[2]*zeta)) / 8
		}
		d[a][0] = dxi * 2 / hx
		d[a][1] = deta * 2 / hy
		d[a][2] = dzeta * 2 / hz
	}
	return d
}

// gauss3 holds the 3-point Gauss rule (exact to degree 5 per axis).
var gauss3 = [3]struct{ x, w float64 }{
	{-math.Sqrt(0.6), 5.0 / 9},
	{0, 8.0 / 9},
	{math.Sqrt(0.6), 5.0 / 9},
}

// QuadElemMats holds the 60×60 element stiffness and 60-vector thermal load
// of a quadratic box element.
type QuadElemMats struct {
	K [60][60]float64
	F [60]float64
}

// ComputeQuadElemMats integrates the quadratic element matrices with the
// 3×3×3 Gauss rule.
func ComputeQuadElemMats(hx, hy, hz float64, mat material.Material) *QuadElemMats {
	lambda, mu := mat.Lame()
	d := DMatrix(lambda, mu)
	ts := mat.ThermalStressCoeff()
	out := &QuadElemMats{}
	det := hx * hy * hz / 8
	for _, gx := range gauss3 {
		for _, gy := range gauss3 {
			for _, gz := range gauss3 {
				w := gx.w * gy.w * gz.w * det
				g := QuadShapeGradients(gx.x, gy.x, gz.x, hx, hy, hz)
				var b [6][60]float64
				for a := 0; a < 20; a++ {
					c := 3 * a
					dx, dy, dz := g[a][0], g[a][1], g[a][2]
					b[0][c] = dx
					b[1][c+1] = dy
					b[2][c+2] = dz
					b[3][c+1] = dz
					b[3][c+2] = dy
					b[4][c] = dz
					b[4][c+2] = dx
					b[5][c] = dy
					b[5][c+1] = dx
				}
				var db [6][60]float64
				for i := 0; i < 6; i++ {
					for k := 0; k < 6; k++ {
						dik := d[i][k]
						if dik == 0 {
							continue
						}
						for j := 0; j < 60; j++ {
							db[i][j] += dik * b[k][j]
						}
					}
				}
				for i := 0; i < 60; i++ {
					for k := 0; k < 6; k++ {
						bki := b[k][i]
						if bki == 0 {
							continue
						}
						wb := bki * w
						for j := 0; j < 60; j++ {
							out.K[i][j] += wb * db[k][j]
						}
					}
				}
				for i := 0; i < 60; i++ {
					out.F[i] += (b[0][i] + b[1][i] + b[2][i]) * ts * w
				}
			}
		}
	}
	return out
}

// QuadModel is a quadratic serendipity discretization of a grid. Its node
// set is the half-step lattice with at most one odd coordinate.
type QuadModel struct {
	Grid *mesh.Grid
	Mats []material.Material

	// HX, HY, HZ are the half-lattice extents (2·cells+1 per axis).
	HX, HY, HZ int
	// nodeID maps half-lattice sites to node ids (−1 = not a serendipity
	// node: face centers, cell centers).
	nodeID []int32
	// Nodes lists the half-lattice triples of real nodes in id order.
	Nodes [][3]int
}

// NewQuadModel enumerates the serendipity nodes of the grid.
func NewQuadModel(g *mesh.Grid, mats []material.Material) *QuadModel {
	m := &QuadModel{
		Grid: g, Mats: mats,
		HX: 2*g.NEX() + 1, HY: 2*g.NEY() + 1, HZ: 2*g.NEZ() + 1,
	}
	m.nodeID = make([]int32, m.HX*m.HY*m.HZ)
	for k := 0; k < m.HZ; k++ {
		for j := 0; j < m.HY; j++ {
			for i := 0; i < m.HX; i++ {
				at := m.flat(i, j, k)
				odd := i%2 + j%2 + k%2
				if odd > 1 {
					m.nodeID[at] = -1
					continue
				}
				m.nodeID[at] = int32(len(m.Nodes))
				m.Nodes = append(m.Nodes, [3]int{i, j, k})
			}
		}
	}
	return m
}

func (m *QuadModel) flat(i, j, k int) int { return i + m.HX*(j+m.HY*k) }

// NumNodes returns the serendipity node count.
func (m *QuadModel) NumNodes() int { return len(m.Nodes) }

// NumDoFs returns 3 × NumNodes.
func (m *QuadModel) NumDoFs() int { return 3 * len(m.Nodes) }

// NodeCoord returns the physical coordinates of node id: corners at grid
// coordinates, mid-edge nodes halfway between the adjacent grid lines.
func (m *QuadModel) NodeCoord(id int) mesh.Vec3 {
	t := m.Nodes[id]
	return mesh.Vec3{X: m.halfCoord(m.Grid.Xs, t[0]), Y: m.halfCoord(m.Grid.Ys, t[1]), Z: m.halfCoord(m.Grid.Zs, t[2])}
}

func (m *QuadModel) halfCoord(ax []float64, h int) float64 {
	if h%2 == 0 {
		return ax[h/2]
	}
	return (ax[(h-1)/2] + ax[(h+1)/2]) / 2
}

// OnBoundary reports whether node id lies on the outer surface.
func (m *QuadModel) OnBoundary(id int) bool {
	t := m.Nodes[id]
	return t[0] == 0 || t[0] == m.HX-1 || t[1] == 0 || t[1] == m.HY-1 || t[2] == 0 || t[2] == m.HZ-1
}

// ElemNodes returns the 20 node ids of element e in quadSigns order.
func (m *QuadModel) ElemNodes(e int) [20]int32 {
	i, j, k := m.Grid.ElemIJK(e)
	var out [20]int32
	for a := 0; a < 20; a++ {
		s := quadSigns[a]
		hi := 2*i + 1 + int(s[0])
		hj := 2*j + 1 + int(s[1])
		hk := 2*k + 1 + int(s[2])
		id := m.nodeID[m.flat(hi, hj, hk)]
		if id < 0 {
			panic(fmt.Sprintf("fem: element %d references non-serendipity site (%d,%d,%d)", e, hi, hj, hk))
		}
		out[a] = id
	}
	return out
}

// DisplacementAtPoint interpolates the displacement at physical point p.
func (m *QuadModel) DisplacementAtPoint(u []float64, p mesh.Vec3) [3]float64 {
	e, xi, eta, zeta := m.Grid.Locate(p)
	ue := m.elemDisp(u, e)
	return QuadElemDisplacement(&ue, xi, eta, zeta)
}

// QuadElemDisplacement interpolates an element's nodal displacements ue
// (three per node in ElemNodes order) at reference point (ξ, η, ζ).
func QuadElemDisplacement(ue *[60]float64, xi, eta, zeta float64) [3]float64 {
	n := QuadShapeFunctions(xi, eta, zeta)
	return interpolate(n[:], ue[:])
}

// StressAtPoint recovers the stress tensor (Voigt) at physical point p.
func (m *QuadModel) StressAtPoint(u []float64, deltaT float64, p mesh.Vec3) [6]float64 {
	e, xi, eta, zeta := m.Grid.Locate(p)
	ue := m.elemDisp(u, e)
	return m.ElemStress(&ue, deltaT, e, xi, eta, zeta)
}

// ElemStress evaluates the stress tensor (Voigt, Eq. 1) at reference point
// (ξ, η, ζ) of element e from its nodal displacements ue, three per node
// in ElemNodes order.
func (m *QuadModel) ElemStress(ue *[60]float64, deltaT float64, e int, xi, eta, zeta float64) [6]float64 {
	hx, hy, hz := m.Grid.ElemSize(e)
	g := QuadShapeGradients(xi, eta, zeta, hx, hy, hz)
	mat := m.Mats[m.Grid.MatID[e]]
	lambda, mu := mat.Lame()
	return hooke(strain(g[:], ue[:]), lambda, mu, mat.ThermalStressCoeff()*deltaT)
}

// elemDisp gathers element e's 60 nodal displacements from the full field.
func (m *QuadModel) elemDisp(u []float64, e int) [60]float64 {
	var ue [60]float64
	for a, n := range m.ElemNodes(e) {
		copy(ue[3*a:3*a+3], u[3*n:3*n+3])
	}
	return ue
}
