package solver

import "fmt"

// OrderingKind names the symmetric row/column ordering the IC0
// preconditioner factors under. IC0 factors in the natural order only; the
// kind survives so that stored and journaled options, responses and stats
// keep their shape. An ordering never changes what the preconditioned solve
// converges to.
type OrderingKind int

const (
	// OrderingAuto — the zero value, and therefore the default wherever an
	// Options travels unset — resolves to OrderingNatural (ResolveOrdering).
	OrderingAuto OrderingKind = iota
	// OrderingNatural factors in the matrix's own row order, the one
	// ordering IC0 has. On the reduced global lattices the factor's
	// dependency DAG is deep and narrow up to about 18×18 (narrow levels
	// sweep serially) and fans out from 24×24.
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

	// NumOrderings bounds the kind values, for stats arrays indexed by
	// ordering (the reserved values keep always-zero slots).
	NumOrderings = 4
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
	}
	return fmt.Sprintf("ordering(%d)", int(k))
}

// ResolveOrdering maps any requested kind to the ordering an n-DoF system
// factors under: OrderingNatural, the only one. This is the one home of
// the rule, so every entry point reports the same ordering.
func ResolveOrdering(OrderingKind, int) OrderingKind { return OrderingNatural }

// FactorLevels is implemented by preconditioners backed by a level-scheduled
// triangular factor; it exposes the schedule's shape (dependency-level count
// and widest level in rows) for the measurement harness and perf snapshots.
type FactorLevels interface {
	Levels() (count, maxWidth int)
}
