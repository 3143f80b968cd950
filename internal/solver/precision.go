package solver

import "fmt"

// Precision selects the storage precision of a factorizing preconditioner's
// values (today: the IC0 factor). The PCG/GMRES iterations always run in
// float64 — precision only rounds the *stored factor entries*, trading a
// slightly weaker preconditioner for half the factor bytes. Triangular
// solves are bandwidth-bound, so this is a direct apply-time win; the solve kernels widen each tile entry to float64 on
// load, so the arithmetic (and the worker-count bitwise contract) is
// unchanged for a fixed stored factor.
type Precision int

const (
	// PrecisionAuto — the zero value, and therefore the default wherever an
	// Options travels unset — stores the factor in float32, on every matrix
	// (the IC0 factor is always 3×3-tiled). The float32 choice is
	// guarded at solve time: GMRES tests the true residual at every
	// restart, PCG re-checks it when the recurrence claims convergence, and
	// a solve that stalls under a float32 factor is retried once by the
	// array layer against a float64 factor — results still match the
	// float64 path at the solve tolerance.
	PrecisionAuto Precision = iota
	// PrecisionFloat64 stores the factor in double precision.
	PrecisionFloat64
	// PrecisionFloat32 requests single-precision factor storage, which is
	// what PrecisionAuto resolves to.
	PrecisionFloat32

	// NumPrecisions bounds the kinds, for stats arrays indexed by precision.
	NumPrecisions = 3
)

// String returns the JSON spelling of the kind, as responses and stats
// report it.
func (p Precision) String() string {
	switch p {
	case PrecisionAuto:
		return "auto"
	case PrecisionFloat64:
		return "float64"
	case PrecisionFloat32:
		return "float32"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// FactorPrecisioned is implemented by preconditioners whose stored factor
// precision matters to the solve loop: PCG checks the true residual on
// convergence only for float32 factors, and the stats plumbing reports the
// concrete precision per solve.
type FactorPrecisioned interface {
	FactorPrecision() Precision
}

// precisionOf reports the storage precision of a preconditioner's values.
// Preconditioners without the method store float64 (block-Jacobi-3, the
// identity).
func precisionOf(m Preconditioner) Precision {
	if fp, ok := m.(FactorPrecisioned); ok {
		return fp.FactorPrecision()
	}
	return PrecisionFloat64
}
