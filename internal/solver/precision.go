package solver

import "fmt"

// Precision selects the storage precision of a factorizing preconditioner's
// values (today: the IC0 factor). The PCG/GMRES iterations always run in
// float64 — precision only rounds the *stored factor entries*, trading a
// slightly weaker preconditioner for half the factor bytes. Triangular
// solves are bandwidth-bound, so on the blocked path this is a direct
// apply-time win; the solve kernels widen each tile entry to float64 on
// load, so the arithmetic (and the worker-count bitwise contract) is
// unchanged for a fixed stored factor.
type Precision int

const (
	// PrecisionAuto — the zero value, and therefore the default wherever an
	// Options travels unset — stores the factor in float32 when the blocked
	// (3×3-tiled) layout engages, float64 otherwise. The float32 choice is
	// guarded at solve time: GMRES tests the true residual at every
	// restart, PCG re-checks it when the recurrence claims convergence, and
	// a solve that stalls under a float32 factor is retried once by the
	// array layer against a float64 factor — results still match the
	// float64 path at the solve tolerance.
	PrecisionAuto Precision = iota
	// PrecisionFloat64 stores the factor in double precision.
	PrecisionFloat64
	// PrecisionFloat32 requests single-precision factor storage. Only the
	// blocked factor layout supports it; a matrix that stays on the scalar
	// path keeps float64 storage and reports so in Stats.Precision.
	PrecisionFloat32

	// NumPrecisions bounds the kinds, for stats arrays indexed by precision.
	NumPrecisions = 3
)

// String returns the flag/JSON spelling of the kind (see ParsePrecision).
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

// ParsePrecision maps the String spellings (plus "" and the f64/f32
// shorthands) back to a kind; the serve flags and request fields go through
// here.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "auto":
		return PrecisionAuto, nil
	case "float64", "f64", "double":
		return PrecisionFloat64, nil
	case "float32", "f32", "single":
		return PrecisionFloat32, nil
	}
	return PrecisionAuto, fmt.Errorf("solver: unknown precision %q (want auto, float64, or float32)", s)
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
