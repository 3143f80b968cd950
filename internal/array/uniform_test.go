package array

import (
	"math"
	"sync"
	"testing"
)

// TestUnitSolutionMatchesCold: a scaled answer agrees with a cold solve of
// the same load to rounding, carries its own ΔT, and reports the unit
// solve's residual with 0 iterations; the unit solution counts in
// MemoryBytes.
func TestUnitSolutionMatchesCold(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	before := asm.MemoryBytes()
	first, err := SolveUniform(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Warm || first.Stats.Iterations == 0 {
		t.Errorf("the unit solve's job reports warm=%v, %d iterations; want its real work", first.Stats.Warm, first.Stats.Iterations)
	}
	if after := asm.MemoryBytes(); after < before+int64(8*len(first.QFree)) {
		t.Errorf("MemoryBytes %d → %d does not count the unit solution", before, after)
	}

	scaledP := *p
	scaledP.DeltaT = -60
	scaled, err := SolveUniform(&scaledP)
	if err != nil {
		t.Fatal(err)
	}
	if !scaled.Stats.Warm || scaled.Stats.Iterations != 0 || !scaled.Stats.Converged {
		t.Errorf("scaled answer stats %+v, want warm, converged, 0 iterations", scaled.Stats)
	}
	if scaled.Stats.Residual != first.Stats.Residual {
		t.Errorf("scaled residual %g, want the unit solve's %g", scaled.Stats.Residual, first.Stats.Residual)
	}
	if scaled.Prob.DeltaT != -60 {
		t.Errorf("Solution.Prob.DeltaT = %g, want the job's own -60", scaled.Prob.DeltaT)
	}
	coldP := scaledP
	coldP.Assembly = nil
	cold, err := Solve(&coldP)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range cold.Q {
		d := scaled.Q[i] - cold.Q[i]
		num += d * d
		den += cold.Q[i] * cold.Q[i]
	}
	if rel := math.Sqrt(num / den); !(rel <= 1e-12) {
		t.Errorf("scaled Q deviates from cold by %.3g relative", rel)
	}
}

// TestUnitSolutionConcurrentFirstUse: concurrent first requests at distinct
// loads run one unit solve; every other caller waits and is scaled, and
// every answer is bitwise ΔT times the unit solution.
func TestUnitSolutionConcurrentFirstUse(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	const callers = 8
	sols := make([]*Solution, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := *p
			q.DeltaT = -25 * float64(i+1)
			sol, err := SolveUniform(&q)
			if err != nil {
				t.Error(err)
				return
			}
			sols[i] = sol
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	solved := 0
	for i, s := range sols {
		if !s.Stats.Warm {
			solved++
			if s.Stats.Iterations == 0 {
				t.Errorf("caller %d ran the unit solve but reports 0 iterations", i)
			}
		} else if s.Stats.Iterations != 0 {
			t.Errorf("scaled caller %d reports %d iterations", i, s.Stats.Iterations)
		}
	}
	if solved != 1 {
		t.Errorf("%d callers ran a solve, want exactly 1", solved)
	}
	if n := len(asm.units.m); n != 1 {
		t.Errorf("%d unit solutions cached, want 1", n)
	}
	unit := asm.units.m[asm.unitKey(p)].v.qf
	for i, s := range sols {
		dt := s.Prob.DeltaT
		for k, v := range s.QFree {
			if math.Float64bits(v) != math.Float64bits(dt*unit[k]) {
				t.Fatalf("caller %d (ΔT=%g): QFree[%d] = %v, want ΔT·q_unit = %v", i, dt, k, v, dt*unit[k])
			}
		}
	}
}

// TestUnitSolutionCap: requests with distinct tolerances keep at most
// maxUnitSolutions unit solutions per assembly, and a unit solution
// recomputed after its eviction gives bitwise the same answer.
func TestUnitSolutionCap(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	ref, err := SolveUniform(p)
	if err != nil {
		t.Fatal(err)
	}
	key := asm.unitKey(p)
	evicted := false
	for i := 0; i < 64 && !evicted; i++ {
		q := *p
		q.Opt.Tol = 1e-9 * (1 + float64(i+1)/128)
		if _, err := SolveUniform(&q); err != nil {
			t.Fatal(err)
		}
		if n := len(asm.units.m); n > maxUnitSolutions {
			t.Fatalf("%d unit solutions cached, cap is %d", n, maxUnitSolutions)
		}
		_, kept := asm.units.m[key]
		evicted = !kept
	}
	if !evicted {
		t.Fatal("the first unit solution was never evicted")
	}
	again, err := SolveUniform(p)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Warm {
		t.Error("an evicted unit solution was not recomputed")
	}
	for k := range ref.Q {
		if math.Float64bits(again.Q[k]) != math.Float64bits(ref.Q[k]) {
			t.Fatalf("recomputed Q[%d] = %v, want %v", k, again.Q[k], ref.Q[k])
		}
	}
}
