package fem

import (
	"math"

	"repro/internal/mesh"
)

// StrainAt evaluates the strain (Voigt, engineering shears) at reference
// point (ξ, η, ζ) of element e from the full displacement vector u.
func (m *Model) StrainAt(u []float64, e int, xi, eta, zeta float64) [6]float64 {
	ue := m.elemDisp(u, e)
	hx, hy, hz := m.Grid.ElemSize(e)
	g := ShapeGradients(xi, eta, zeta, hx, hy, hz)
	return strain(g[:], ue[:])
}

// StressAt evaluates the stress tensor (Voigt) at reference point (ξ, η, ζ)
// of element e, applying the constitutive law of Eq. 1:
// σ = λ·tr(ε)·1 + 2µ·ε − α(3λ+2µ)·ΔT·1.
func (m *Model) StressAt(u []float64, deltaT float64, e int, xi, eta, zeta float64) [6]float64 {
	ue := m.elemDisp(u, e)
	return m.ElemStress(&ue, deltaT, e, xi, eta, zeta)
}

// ElemStress is StressAt from the element's own nodal displacements ue,
// three per node in ElemNodes order, so a caller holding only those 24
// values need not build the full field.
func (m *Model) ElemStress(ue *[24]float64, deltaT float64, e int, xi, eta, zeta float64) [6]float64 {
	hx, hy, hz := m.Grid.ElemSize(e)
	g := ShapeGradients(xi, eta, zeta, hx, hy, hz)
	mat := m.Mats[m.Grid.MatID[e]]
	lambda, mu := mat.Lame()
	return hooke(strain(g[:], ue[:]), lambda, mu, mat.ThermalStressCoeff()*deltaT)
}

// StressAtPoint locates the element containing the physical point p and
// evaluates the stress there.
func (m *Model) StressAtPoint(u []float64, deltaT float64, p mesh.Vec3) [6]float64 {
	e, xi, eta, zeta := m.Grid.Locate(p)
	return m.StressAt(u, deltaT, e, xi, eta, zeta)
}

// DisplacementAtPoint interpolates the displacement at physical point p.
func (m *Model) DisplacementAtPoint(u []float64, p mesh.Vec3) [3]float64 {
	e, xi, eta, zeta := m.Grid.Locate(p)
	ue := m.elemDisp(u, e)
	return ElemDisplacement(&ue, xi, eta, zeta)
}

// ElemDisplacement interpolates an element's nodal displacements ue (three
// per node in ElemNodes order) at reference point (ξ, η, ζ).
func ElemDisplacement(ue *[24]float64, xi, eta, zeta float64) [3]float64 {
	n := ShapeFunctions(xi, eta, zeta)
	return interpolate(n[:], ue[:])
}

// elemDisp gathers element e's 24 nodal displacements from the full field.
func (m *Model) elemDisp(u []float64, e int) [24]float64 {
	var ue [24]float64
	for a, n := range m.Grid.ElemNodes(e) {
		copy(ue[3*a:3*a+3], u[3*n:3*n+3])
	}
	return ue
}

// strain accumulates the Voigt strain Σ_a B_a·u_a from the nodal shape
// gradients g and the element's nodal displacements ue (three per node, in
// g's order).
func strain(g [][3]float64, ue []float64) [6]float64 {
	var eps [6]float64
	for a, ga := range g {
		ux, uy, uz := ue[3*a], ue[3*a+1], ue[3*a+2]
		dx, dy, dz := ga[0], ga[1], ga[2]
		eps[0] += dx * ux
		eps[1] += dy * uy
		eps[2] += dz * uz
		eps[3] += dz*uy + dy*uz
		eps[4] += dz*ux + dx*uz
		eps[5] += dy*ux + dx*uy
	}
	return eps
}

// hooke applies Eq. 1 to a strain: σ = λ·tr(ε)·1 + 2µ·ε − th·1, where th is
// the thermal stress α(3λ+2µ)·ΔT.
func hooke(eps [6]float64, lambda, mu, th float64) [6]float64 {
	tr := eps[0] + eps[1] + eps[2]
	var s [6]float64
	s[0] = lambda*tr + 2*mu*eps[0] - th
	s[1] = lambda*tr + 2*mu*eps[1] - th
	s[2] = lambda*tr + 2*mu*eps[2] - th
	s[3] = mu * eps[3]
	s[4] = mu * eps[4]
	s[5] = mu * eps[5]
	return s
}

// interpolate sums the shape functions n against the nodal displacements
// ue (three per node, in n's order).
func interpolate(n, ue []float64) [3]float64 {
	var out [3]float64
	for a, na := range n {
		out[0] += na * ue[3*a]
		out[1] += na * ue[3*a+1]
		out[2] += na * ue[3*a+2]
	}
	return out
}

// VonMises returns the von Mises equivalent stress of a Voigt stress tensor.
func VonMises(s [6]float64) float64 {
	dxy := s[0] - s[1]
	dyz := s[1] - s[2]
	dzx := s[2] - s[0]
	return math.Sqrt(0.5*(dxy*dxy+dyz*dyz+dzx*dzx) + 3*(s[3]*s[3]+s[4]*s[4]+s[5]*s[5]))
}
