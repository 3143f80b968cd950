package solver

import (
	"fmt"

	"repro/internal/sparse"
)

// OrderingKind names the symmetric row/column ordering the IC0
// preconditioner factors under. IC0 factors in the matrix's own row order,
// so the ordering is the matrix's numbering: an array.Assembly numbers its
// free nodes in the two-ended order and reports OrderingTwoEnded, and the
// solver on its own reports OrderingNatural. The requested kind changes
// nothing; it survives so that stored and journaled options, responses and
// stats keep their shape. An ordering never changes what the
// preconditioned solve converges to.
type OrderingKind int

const (
	// OrderingAuto — the zero value, and therefore the default wherever an
	// Options travels unset — resolves by the matrix's numbering.
	OrderingAuto OrderingKind = iota
	// OrderingNatural factors in the matrix's own row order: what the
	// solver reports for every matrix and preconditioner kind.
	OrderingNatural
	// Value 2 is reserved: it was the reverse Cuthill–McKee IC0 ordering,
	// deleted after it lost to natural at every measured lattice (18×18:
	// 18 iterations / 285 ms against 16 / 239 ms). Journals written before
	// the deletion replay it as natural (see internal/jobqueue), so the
	// value must never be reused.
	_
	// Value 3 is reserved: it was the greedy multicolor IC0 ordering,
	// deleted once dropping the negligible factor tiles took its lead away
	// (a tie at 2 workers, 11–15 % slower at 1, 21 iterations to natural's
	// 19 at 12×12; docs/SOLVER_TUNING.md). Journaled jobs replay it as
	// natural; a journaled result still reports it by name (String).
	_
	// OrderingTwoEnded factors in the two-ended line order an
	// array.Assembly numbers its free nodes in: eliminated from both
	// lattice edges toward a middle block line (van der Vorst,
	// Parallel Computing 5, 1987). Its sweeps split into two independent
	// halves and a tail no wider than the line (sparse.LevelSchedule), and
	// it takes fewer GMRES iterations than natural on the served lattices
	// (docs/SOLVER_TUNING.md).
	OrderingTwoEnded

	// NumOrderings bounds the kind values, for stats arrays indexed by
	// ordering (the reserved values keep always-zero slots).
	NumOrderings = 5
)

// String returns the JSON spelling of the kind, as responses and stats
// report it.
func (k OrderingKind) String() string {
	switch k {
	case OrderingAuto:
		return "auto"
	case OrderingNatural:
		return "natural"
	case 3: // reserved: the deleted multicolor ordering
		return "multicolor"
	case OrderingTwoEnded:
		return "two-ended"
	}
	return fmt.Sprintf("ordering(%d)", int(k))
}

// TriFactor is implemented by preconditioners backed by a triangular
// factor (IC0); tests and the measurement harness read the factor's
// layout and two-phase schedules through it.
type TriFactor interface {
	Factor() *sparse.BlockLowerTri
}
