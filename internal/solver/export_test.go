package solver

// Seams for the served-lattice tests and benchmarks (served_test.go), which
// live in package solver_test so they can assemble the served matrices.
var (
	CompareWithReference = compareWithReference
	ReferenceIC0         = referenceIC0
)

// CheckSymLayout is the upper-triangle layout contract (sym_test.go).
var CheckSymLayout = checkSymLayout
