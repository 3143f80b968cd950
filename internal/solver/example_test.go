package solver_test

import (
	"fmt"

	"repro/internal/solver"
	"repro/internal/sparse"
)

// spd3 builds a tiny SPD system with 3 DoFs per node — the shape of a
// reduced global stiffness matrix — whose solution is all ones, held as the
// 3×3 tiles the solvers take.
func spd3(nodes int) (a *sparse.BCSR, b []float64) {
	n := 3 * nodes
	tr := sparse.NewTriplet(n, n, 9*nodes+2*(n-3))
	for i := 0; i < n; i++ {
		tr.Add(i, i, 4)
		if i+3 < n {
			tr.Add(i, i+3, -1)
			tr.Add(i+3, i, -1)
		}
	}
	a, err := sparse.NewBCSR(tr.ToCSR())
	if err != nil {
		panic(err)
	}
	b = make([]float64, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	a.MulVec(b, x)
	return a, b
}

// ExamplePCG solves an SPD system with the preconditioned conjugate
// gradient. Options.Precond defaults to PrecondAuto, which resolves to IC0
// at every size; the returned Stats record the resolved choice.
func ExamplePCG() {
	a, b := spd3(40)
	x, stats, err := solver.PCG(a, b, nil, solver.Options{Tol: 1e-10})
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", stats.Converged)
	fmt.Println("preconditioner:", stats.Precond)
	fmt.Printf("x[0] = %.6f\n", x[0])
	// Output:
	// converged: true
	// preconditioner: ic0
	// x[0] = 1.000000
}

// ExamplePCG_warmStart seeds a solve with the solution of a neighboring
// scenario (here: the same system, so the seed is exact). Warm starts are
// how ΔT sweeps cut their iteration counts: each solve begins from the
// previous solution instead of zero.
func ExamplePCG_warmStart() {
	a, b := spd3(40)
	cold, stats, err := solver.PCG(a, b, nil, solver.Options{Tol: 1e-10})
	if err != nil {
		panic(err)
	}
	fmt.Println("cold start iterated:", stats.Iterations > 0)

	_, warm, err := solver.PCG(a, b, cold, solver.Options{Tol: 1e-10})
	if err != nil {
		panic(err)
	}
	fmt.Println("warm-started:", warm.Warm)
	fmt.Println("warm iterations:", warm.Iterations)
	// Output:
	// cold start iterated: true
	// warm-started: true
	// warm iterations: 0
}
