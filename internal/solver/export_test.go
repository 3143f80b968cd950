package solver

import "repro/internal/sparse"

// Seams for the served-lattice tests and benchmarks (served_test.go), which
// live in package solver_test so they can assemble the served matrices.
var (
	CompareWithReference = compareWithReference
	ReferenceIC0         = referenceIC0
)

// DropTau is the IC0 factor's tile-drop threshold.
const DropTau = dropTau

// NewIC0Tau builds the IC0 preconditioner with tile-drop threshold tau
// (0 keeps the whole IC(0) factor).
func NewIC0Tau(a *sparse.BCSR, prec Precision, tau float64) (Preconditioner, error) {
	return newIC0Tau(a, prec, tau)
}

// IC0Factor returns the factor of an IC0 preconditioner.
func IC0Factor(m Preconditioner) *sparse.BlockLowerTri { return m.(*ic0).l }

// CheckSymLayout is the upper-triangle layout contract (sym_test.go).
var CheckSymLayout = checkSymLayout

// ApplyPar applies an IC0 preconditioner through ws's resident gang.
func ApplyPar(m Preconditioner, dst, r []float64, ws *Workspace) {
	m.(*ic0).applyPar(dst, r, ws)
}
