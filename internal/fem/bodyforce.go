package fem

import (
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// BodyForceLoad assembles the consistent load vector for a body force
// density field f(r) (force per unit volume): L(v) = ∫ f·v dr, integrated
// with the 2×2×2 Gauss rule per element. The paper's IC scenarios set
// f ≡ 0 (gravity neglected, §3.2); this loading path exists to verify the
// kernel against manufactured solutions and to support non-IC use cases.
func (m *Model) BodyForceLoad(workers int, body func(p mesh.Vec3) [3]float64) []float64 {
	g := m.Grid
	f := make([]float64, 3*g.NumNodes())
	if workers < 1 {
		workers = 1
	}
	ne := g.NumElems()
	bufs := make([][]float64, workers)
	sparse.ForChunks(ne, workers, func(c, lo, hi int) {
		buf := make([]float64, len(f))
		for e := lo; e < hi; e++ {
			if g.MatID[e] == mesh.VoidMaterial {
				continue
			}
			hx, hy, hz := g.ElemSize(e)
			o := g.ElemOrigin(e)
			nodes := g.ElemNodes(e)
			detJw := hx * hy * hz / 8
			for _, xi := range gauss2 {
				for _, eta := range gauss2 {
					for _, zeta := range gauss2 {
						n := ShapeFunctions(xi, eta, zeta)
						p := mesh.Vec3{
							X: o.X + (xi+1)/2*hx,
							Y: o.Y + (eta+1)/2*hy,
							Z: o.Z + (zeta+1)/2*hz,
						}
						bf := body(p)
						for a := 0; a < 8; a++ {
							idx := 3 * int(nodes[a])
							w := n[a] * detJw
							buf[idx] += w * bf[0]
							buf[idx+1] += w * bf[1]
							buf[idx+2] += w * bf[2]
						}
					}
				}
			}
		}
		bufs[c] = buf
	})
	for _, buf := range bufs {
		if buf == nil {
			continue
		}
		for i, v := range buf {
			f[i] += v
		}
	}
	return f
}
