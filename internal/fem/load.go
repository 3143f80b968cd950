package fem

import (
	"sync"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// ThermalLoad assembles the thermal load vector with a per-element scale
// factor (typically the local ΔT), enabling nonuniform thermal fields that
// are piecewise constant per element. Assemble's F equals
// ThermalLoad(workers, nil) (unit scale).
func (m *Model) ThermalLoad(workers int, scale func(e int) float64) []float64 {
	g := m.Grid
	f := make([]float64, 3*g.NumNodes())
	if workers < 1 {
		workers = 1
	}

	cache := map[elemKey]*ElemMats{}
	var mu sync.Mutex
	elemFor := func(e int) *ElemMats {
		id := g.MatID[e]
		if id == mesh.VoidMaterial {
			return nil
		}
		hx, hy, hz := g.ElemSize(e)
		key := elemKey{quantize(hx), quantize(hy), quantize(hz), id}
		mu.Lock()
		em, ok := cache[key]
		if !ok {
			em = ComputeElemMats(hx, hy, hz, m.Mats[id])
			cache[key] = em
		}
		mu.Unlock()
		return em
	}

	// Parallel over static element chunks: two chunks touch the same node
	// row only where their elements share nodes, so each chunk scatters into
	// its own buffer and the buffers are summed in chunk order at the end.
	ne := g.NumElems()
	bufs := make([][]float64, workers)
	sparse.ForChunks(ne, workers, func(c, lo, hi int) {
		buf := make([]float64, len(f))
		for e := lo; e < hi; e++ {
			em := elemFor(e)
			if em == nil {
				continue
			}
			s := 1.0
			if scale != nil {
				s = scale(e)
			}
			if s == 0 {
				continue
			}
			nodes := g.ElemNodes(e)
			for a := 0; a < 8; a++ {
				n := int(nodes[a])
				buf[3*n] += s * em.F[3*a]
				buf[3*n+1] += s * em.F[3*a+1]
				buf[3*n+2] += s * em.F[3*a+2]
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
