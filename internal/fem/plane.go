package fem

import "repro/internal/mesh"

// LayerDoFs returns the DoF range [lo, hi) of the nodes of the element
// layer that Locate picks for height z. Nodes are numbered z-major, so the
// layer's two node planes are contiguous.
func (m *Model) LayerDoFs(z float64) (lo, hi int) {
	k := mesh.LocateAxis(m.Grid.Zs, z)
	return 3 * m.Grid.NodeIndex(0, 0, k), 3 * m.Grid.NodeIndex(0, 0, k+2)
}

// LayerDoFs returns the DoF range [lo, hi) of the nodes of the element
// layer that Locate picks for height z: the half-lattice planes 2k…2k+2,
// contiguous because node ids are assigned z-major.
func (m *QuadModel) LayerDoFs(z float64) (lo, hi int) {
	k := mesh.LocateAxis(m.Grid.Zs, z)
	lo = 3 * int(m.nodeID[m.flat(0, 0, 2*k)])
	hi = 3 * len(m.Nodes)
	if next := 2*k + 3; next < m.HZ {
		hi = 3 * int(m.nodeID[m.flat(0, 0, next)])
	}
	return lo, hi
}

// PlaneGrid is a rectilinear lattice of sample points xs × ys on the plane
// z = zCut of a trilinear model. Everything the stress recovery derives from
// one axis alone — the element column, the reference coordinate, 2/h and the
// shape-gradient factors — is computed once per axis value, so a sample
// costs only the 8-node strain sum. The factors keep ShapeGradients'
// expression order, so each sample is bitwise equal to StressAtPoint's.
type PlaneGrid struct {
	m       *Model
	xs      []planeX
	ys      []planeY
	ck      int          // element layer
	layer   int          // node index of the layer's first node
	off     [8]int       // DoF offsets of the 8 element nodes from node (i, j, k)
	cz      float64      // 2/hz of the layer
	lame    [][2]float64 // (λ, µ) per material id
	thermal []float64    // α(3λ+2µ) per material id
}

// planeX holds one x sample: its element column, 2/hx, and per node the
// y-gradient factor s_y·(1+s_x·ξ)·(1+s_z·ζ)/8 and the z-gradient factor
// s_z·(1+s_x·ξ).
type planeX struct {
	c      int
	inv    float64
	gy, gz [8]float64
}

// planeY holds one y sample: its element row, 2/hy, and per node the
// x-gradient factor s_x·(1+s_y·η)·(1+s_z·ζ)/8 and 1+s_y·η.
type planeY struct {
	c      int
	inv    float64
	gx, ey [8]float64
}

// NewPlaneGrid locates the sample lattice xs × ys on the plane z = zCut.
func (m *Model) NewPlaneGrid(xs, ys []float64, zCut float64) *PlaneGrid {
	g := m.Grid
	pg := &PlaneGrid{m: m, xs: make([]planeX, len(xs)), ys: make([]planeY, len(ys))}
	e, _, _, zeta := g.Locate(mesh.Vec3{X: g.Xs[0], Y: g.Ys[0], Z: zCut})
	_, _, pg.ck = g.ElemIJK(e)
	_, _, hz := g.ElemSize(e)
	pg.cz = 2 / hz
	pg.layer = g.NodeIndex(0, 0, pg.ck)
	for a, n := range g.ElemNodes(e) {
		pg.off[a] = 3 * (int(n) - pg.layer)
	}
	for i, x := range xs {
		e, xi, _, _ := g.Locate(mesh.Vec3{X: x, Y: g.Ys[0], Z: zCut})
		hx, _, _ := g.ElemSize(e)
		px := &pg.xs[i]
		px.c, _, _ = g.ElemIJK(e)
		px.inv = 2 / hx
		for a, s := range vtkSigns {
			px.gy[a] = s[1] * (1 + s[0]*xi) * (1 + s[2]*zeta) / 8
			px.gz[a] = s[2] * (1 + s[0]*xi)
		}
	}
	for j, y := range ys {
		e, _, eta, _ := g.Locate(mesh.Vec3{X: g.Xs[0], Y: y, Z: zCut})
		_, hy, _ := g.ElemSize(e)
		py := &pg.ys[j]
		_, py.c, _ = g.ElemIJK(e)
		py.inv = 2 / hy
		for a, s := range vtkSigns {
			py.gx[a] = s[0] * (1 + s[1]*eta) * (1 + s[2]*zeta) / 8
			py.ey[a] = 1 + s[1]*eta
		}
	}
	pg.lame = make([][2]float64, len(m.Mats))
	pg.thermal = make([]float64, len(m.Mats))
	for id, mat := range m.Mats {
		pg.lame[id][0], pg.lame[id][1] = mat.Lame()
		pg.thermal[id] = mat.ThermalStressCoeff()
	}
	return pg
}

// VonMises writes the von Mises stress of the displacement field u at
// thermal load deltaT into dst, one value per sample, x fastest. Only the
// DoFs in LayerDoFs(zCut) of u are read.
func (pg *PlaneGrid) VonMises(dst, u []float64, deltaT float64) {
	g := pg.m.Grid
	nx, nex, ney := len(g.Xs), g.NEX(), g.NEY()
	for j := range pg.ys {
		py := &pg.ys[j]
		row := dst[j*len(pg.xs) : (j+1)*len(pg.xs)]
		for i := range pg.xs {
			px := &pg.xs[i]
			at := 3 * (pg.layer + px.c + nx*py.c)
			// strain's sum, with the gradients formed in place.
			var eps [6]float64
			for a, off := range pg.off {
				ux, uy, uz := u[at+off], u[at+off+1], u[at+off+2]
				dx := py.gx[a] * px.inv
				dy := px.gy[a] * py.inv
				dz := px.gz[a] * py.ey[a] / 8 * pg.cz
				eps[0] += dx * ux
				eps[1] += dy * uy
				eps[2] += dz * uz
				eps[3] += dz*uy + dy*uz
				eps[4] += dz*ux + dx*uz
				eps[5] += dy*ux + dx*uy
			}
			id := g.MatID[px.c+nex*(py.c+ney*pg.ck)]
			lambda, mu, th := pg.lame[id][0], pg.lame[id][1], pg.thermal[id]*deltaT
			// hooke, written out so the compiler keeps eps in registers.
			tr := eps[0] + eps[1] + eps[2]
			row[i] = VonMises([6]float64{
				lambda*tr + 2*mu*eps[0] - th,
				lambda*tr + 2*mu*eps[1] - th,
				lambda*tr + 2*mu*eps[2] - th,
				mu * eps[3],
				mu * eps[4],
				mu * eps[5],
			})
		}
	}
}
