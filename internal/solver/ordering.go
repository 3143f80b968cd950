package solver

import (
	"fmt"

	"repro/internal/sparse"
)

// OrderingKind selects the symmetric row/column ordering the IC0
// preconditioner factors under. The ordering changes the *shape* of the
// factor's dependency DAG (and therefore how well the level-scheduled
// triangular solves parallelize) and, mildly, the factor's quality (iteration
// count); it never changes what the preconditioned solve converges to.
// Block-Jacobi-3 and the identity are ordering-invariant and ignore it.
type OrderingKind int

const (
	// OrderingAuto — the zero value, and therefore the default wherever an
	// Options travels unset — switches IC0 to the greedy multicolor ordering
	// when the system is at least AutoMulticolorMinDoFs and the resolving
	// solve has more than one worker, and keeps the natural ordering
	// otherwise (ResolveOrdering; with one worker — a single core, or one
	// chain of a saturated batch — wide levels buy nothing and the
	// multicolor factor costs extra iterations).
	OrderingAuto OrderingKind = iota
	// OrderingNatural factors in the matrix's own row order. On the reduced
	// global lattices this yields deep, narrow dependency DAGs (PR 4
	// measured 18×18 at 1 445 levels ≤ 24 rows wide), so the level-scheduled
	// solves fall back to their serial loops.
	OrderingNatural
	// Value 2 is reserved: it was the reverse Cuthill–McKee IC0 ordering,
	// deleted after it lost to natural at every measured lattice (18×18:
	// 18 iterations / 285 ms against 16 / 239 ms). Journals written before
	// the deletion replay it as natural (see internal/jobqueue), so the
	// value must never be reused.
	_
	// OrderingMulticolor factors under the greedy multicolor ordering
	// (Multicolor): rows of one color are mutually independent, so the
	// factor's forward and backward schedules collapse to one level per
	// color and every level is wide. Trades a few extra PCG iterations for
	// parallel preconditioner application.
	OrderingMulticolor

	// NumOrderings bounds the kind values, for stats arrays indexed by
	// ordering (the reserved value 2 keeps an always-zero slot).
	NumOrderings = 4
)

// AutoMulticolorMinDoFs is the system size below which OrderingAuto keeps
// the natural ordering whatever the worker count. It equals
// sparse.MinParRows: below it the mat-vec runs serially anyway, and the
// measured small-lattice trade (6×6 reduced global, 2 709 DoFs: +5 PCG
// iterations for levels that barely split into two chunks) never recovers
// the coloring's weaker factor — docs/SOLVER_TUNING.md has the table.
const AutoMulticolorMinDoFs = sparse.MinParRows

// String returns the flag/JSON spelling of the kind (see ParseOrdering).
func (k OrderingKind) String() string {
	switch k {
	case OrderingAuto:
		return "auto"
	case OrderingNatural:
		return "natural"
	case OrderingMulticolor:
		return "multicolor"
	}
	return fmt.Sprintf("ordering(%d)", int(k))
}

// ParseOrdering maps the String spellings (plus "") back to a kind; the
// serve flags and request fields go through here.
func ParseOrdering(s string) (OrderingKind, error) {
	switch s {
	case "", "auto":
		return OrderingAuto, nil
	case "natural":
		return OrderingNatural, nil
	case "multicolor":
		return OrderingMulticolor, nil
	}
	return OrderingAuto, fmt.Errorf("solver: unknown ordering %q (want auto, natural, or multicolor)", s)
}

// Multicolor computes a greedy multicolor (graph-coloring) ordering of the
// symmetric sparsity pattern with n vertices, where rowsOf(r) lists the
// columns adjacent to row r (the CSR row slice; the diagonal and
// out-of-range entries are ignored). Vertices are colored in natural order,
// each taking the smallest color absent from its already-colored neighbors,
// then ordered color-major: colors ascending, natural vertex order within a
// color. The returned perm maps perm[old] = new; colorPtr bounds each color
// class in the new index space (len = colors+1), so class c is the new
// indices [colorPtr[c], colorPtr[c+1]).
//
// No two adjacent vertices share a color, so under the returned permutation
// every off-diagonal entry couples *different* colors — the lower-triangular
// factor of the permuted matrix has one dependency level per color, each as
// wide as its class. That is the property the level-scheduled triangular
// solves need: ~#colors wide levels instead of the deep, narrow natural-order
// DAGs (see LevelSchedule). The ordering is deterministic for a fixed
// pattern.
func Multicolor(n int, rowsOf func(r int) []int32) (perm []int32, colorPtr []int32) {
	color := make([]int32, n)
	for i := range color {
		color[i] = -1
	}
	// mark[c] holds the most recent vertex whose neighborhood saw color c, so
	// clearing between vertices is O(1).
	var mark []int32
	var ncolors int32
	for v := 0; v < n; v++ {
		for _, w := range rowsOf(v) {
			if w < 0 || int(w) >= n || int(w) == v {
				continue
			}
			if c := color[w]; c >= 0 {
				mark[c] = int32(v)
			}
		}
		c := int32(0)
		for c < ncolors && mark[c] == int32(v) {
			c++
		}
		if c == ncolors {
			ncolors++
			mark = append(mark, -1)
		}
		color[v] = c
	}
	// Counting sort by color: natural order within a class keeps the ordering
	// (and everything downstream of it) deterministic.
	colorPtr = make([]int32, ncolors+1)
	for _, c := range color {
		colorPtr[c+1]++
	}
	for c := int32(0); c < ncolors; c++ {
		colorPtr[c+1] += colorPtr[c]
	}
	perm = make([]int32, n)
	next := make([]int32, ncolors)
	copy(next, colorPtr[:ncolors])
	for v := 0; v < n; v++ {
		c := color[v]
		perm[v] = next[c]
		next[c]++
	}
	return perm, colorPtr
}

// MulticolorNodes is the block-aware multicolor ordering for 3-DoF node
// systems: it colors the *node quotient graph* — the tile pattern of a, where
// nodes are adjacent when any of their scalar DoFs couple — with the same
// greedy rule as Multicolor, then expands the node permutation so each
// node's 3 rows stay contiguous — perm[3v+c] = 3·newNode(v)+c. Blocked
// (3×3-tiled) storage survives the reordering intact, and the coloring is
// coarser than a scalar one (node cliques collapse to single vertices),
// which is why it costs fewer extra PCG iterations than coloring scalar
// rows: the intra-node couplings that scalar coloring is forced to separate
// stay together.
//
// Under the returned permutation no two adjacent nodes share a color, so
// the factor's dependency schedules collapse to one block level per color.
// The returned perm maps perm[old] = new over scalar indices; colorPtr
// bounds each color class in *node* units (class c covers scalar rows
// [3·colorPtr[c], 3·colorPtr[c+1])). Deterministic for a fixed pattern.
func MulticolorNodes(a *sparse.BCSR) (perm []int32, colorPtr []int32) {
	nodePerm, colorPtr := Multicolor(a.NBRows(), func(v int) []int32 {
		return a.BColIdx[a.BRowPtr[v]:a.BRowPtr[v+1]]
	})
	perm = make([]int32, a.NRows)
	for v, q := range nodePerm {
		for i := 0; i < sparse.BlockSize; i++ {
			perm[sparse.BlockSize*v+i] = sparse.BlockSize*q + int32(i)
		}
	}
	return perm, colorPtr
}

// ResolveOrdering maps OrderingAuto to the concrete ordering chosen for an
// n-DoF system and the solve's worker count: multicolor when the system is
// large enough for fan-out to matter (AutoMulticolorMinDoFs) and the solve
// actually runs parallel kernels (workers > 1; 0 means DefaultWorkers),
// natural otherwise. The worker count matters: a batch engine that splits
// the machine across concurrent chains hands each solve only a share of the
// cores, and a 1-worker solve would pay the coloring's extra iterations with
// zero fan-out benefit. Concrete kinds resolve to themselves. This is the
// one home of the OrderingAuto rule.
func ResolveOrdering(k OrderingKind, n, workers int) OrderingKind {
	if k != OrderingAuto {
		return k
	}
	if n >= AutoMulticolorMinDoFs && normWorkers(workers) > 1 {
		return OrderingMulticolor
	}
	return OrderingNatural
}

// orderingPerm materializes the permutation of a concrete ordering kind for
// the pattern of a: nil for the natural ordering (identity) and for the
// reserved value 2, which therefore factors as natural. Multicolor is
// node-blocked (MulticolorNodes), so the permutation moves whole 3×3 tiles.
func orderingPerm(k OrderingKind, a *sparse.BCSR) []int32 {
	if k != OrderingMulticolor {
		return nil
	}
	perm, _ := MulticolorNodes(a)
	return perm
}

// Ordered is implemented by preconditioners that factor under a symmetric
// ordering; the solvers record it in Stats and the array layer surfaces it
// per solution. Preconditioners without the method are ordering-invariant
// (reported as OrderingNatural).
type Ordered interface {
	Ordering() OrderingKind
}

// orderingOf reports the ordering a preconditioner was built under.
func orderingOf(m Preconditioner) OrderingKind {
	if o, ok := m.(Ordered); ok {
		return o.Ordering()
	}
	return OrderingNatural
}

// FactorLevels is implemented by preconditioners backed by a level-scheduled
// triangular factor; it exposes the schedule's shape (dependency-level count
// and widest level in rows) for the measurement harness and perf snapshots.
type FactorLevels interface {
	Levels() (count, maxWidth int)
}
