package main

import (
	"fmt"
	"math"
	"math/rand"

	morestress "repro"
)

// Verification tolerances: iterative solves at the default 1e-8 residual
// agree with direct Cholesky to ~1e-8 in Solution.Q.
const (
	qTol  = 1e-6 // relative L2 of Solution.Q against SolveDirect
	vmTol = 1e-6 // relative error of maxVonMises against the scaled reference
)

// relL2 is ‖a−b‖/‖b‖; +Inf for mismatched lengths or a zero reference.
func relL2(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// checkQ reports whether a solution matches its direct reference.
func checkQ(got, ref []float64) error {
	if e := relL2(got, ref); !(e <= qTol) {
		return fmt.Errorf("solution differs from direct reference: relative L2 %.3g > %g", e, qTol)
	}
	return nil
}

// checkVM reports whether a maxVonMises matches the reference taken at
// refDT, scaled by |ΔT| (von Mises is linear in |ΔT| under uniform loads).
func checkVM(got, ref, refDT, dt float64) error {
	want := ref * math.Abs(dt/refDT)
	if e := math.Abs(got-want) / math.Abs(want); !(e <= vmTol) {
		return fmt.Errorf("maxVonMises %.9g, want %.9g (relative error %.3g > %g)", got, want, e, vmTol)
	}
	return nil
}

// sampled marks a seeded one-in-every of n ops (at least one) for
// verification; the same seed picks the same ops.
func sampled(seed int64, n, every int) []bool {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]bool, n)
	for i := 0; i < n; i += every {
		out[i+r.Intn(min(every, n-i))] = true
	}
	return out
}

// directQ re-solves a job with SolveDirect on the given engine.
func directQ(e *morestress.Engine, job morestress.Job) ([]float64, error) {
	job.Solver = morestress.SolveDirect
	job.GridSamples = 0
	res, err := e.Solve(job)
	if err != nil {
		return nil, err
	}
	return res.Result.Solution.Q, nil
}
