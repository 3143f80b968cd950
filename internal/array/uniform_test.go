package array

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
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
	unit := asm.units.m[asm.unitKey(p)].v.sol.QFree
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

// servedLattice is the served 6×6 clamped lattice of the (5,5,5)-node
// coarse cell, with its assembly, at ΔT = −250.
func servedLattice(t *testing.T) *Problem {
	t.Helper()
	p := &Problem{ROM: servedROM(t, true), Bx: 6, By: 6, DeltaT: -250, BC: ClampedTopBottom}
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	return p
}

// maxRelDiff is max|got − want| / max|want|.
func maxRelDiff(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		num = math.Max(num, math.Abs(got[i]-want[i]))
		den = math.Max(den, math.Abs(want[i]))
	}
	return num / den
}

// TestUnitFieldMatchesCold: the field of a SolveUniform answer, scaled from
// the unit solution's cached field, agrees with the field of a Solve of the
// same load to rounding, and a second call is bitwise the first. The fields
// of Solve answers and of per-block loads are still sampled from their own
// solution, bitwise as the full reconstruction does.
func TestUnitFieldMatchesCold(t *testing.T) {
	p := servedLattice(t)
	for _, dt := range []float64{-250, -173.25, 37.5, -1e-3} {
		q := *p
		q.DeltaT = dt
		scaled, err := SolveUniform(&q)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(&q)
		if err != nil {
			t.Fatal(err)
		}
		if scaled.unit == nil || cold.unit != nil {
			t.Fatalf("ΔT=%g: SolveUniform answer records a unit solution: %v; Solve answer: %v", dt, scaled.unit != nil, cold.unit != nil)
		}
		for _, gs := range []int{10, 40} {
			got, want := scaled.VMField(gs, 0), cold.VMField(gs, 0)
			if rel := maxRelDiff(got.V, want.V); !(rel <= 1e-12) {
				t.Errorf("ΔT=%g gs=%d: scaled field deviates from the cold field by %.3g relative", dt, gs, rel)
			}
			sameBits(t, fmt.Sprintf("ΔT=%g gs=%d second call", dt, gs), scaled.VMField(gs, 0).V, got.V)
			sameBits(t, fmt.Sprintf("ΔT=%g gs=%d cold", dt, gs), want.V, referenceVMField(cold, gs).V)
		}
	}
	hot := *p
	hot.DeltaTFor = func(bx, by int) float64 { return -250 + 17*float64(bx) - 9*float64(by) }
	sol, err := SolveUniform(&hot)
	if err != nil {
		t.Fatal(err)
	}
	if sol.unit != nil {
		t.Fatal("a per-block load was scaled from a unit solution")
	}
	sameBits(t, "per-block load", sol.VMField(10, 0).V, referenceVMField(sol, 10).V)
}

// TestUnitFieldConcurrentFirstUse: concurrent first requests for one grid
// size, on answers at distinct loads, sample the unit field once; every
// field is bitwise |ΔT| times it, and MemoryBytes may be read meanwhile.
func TestUnitFieldConcurrentFirstUse(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	const callers, gs = 8, 6
	sols := make([]*Solution, callers)
	fields := make([][]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := *p
			q.DeltaT = 30 - 25*float64(i)
			sol, err := SolveUniform(&q)
			if err != nil {
				t.Error(err)
				return
			}
			sols[i], fields[i] = sol, sol.VMField(gs, 2).V
			asm.MemoryBytes()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	u := asm.units.m[asm.unitKey(p)].v
	if n := len(u.fields.m); n != 1 {
		t.Fatalf("%d unit fields cached, want 1", n)
	}
	unit := u.fields.m[gs].v.V
	for i, s := range sols {
		if s.unit != u {
			t.Fatalf("caller %d records another unit solution", i)
		}
		k := math.Abs(s.Prob.DeltaT)
		for j, v := range fields[i] {
			if math.Float64bits(v) != math.Float64bits(k*unit[j]) {
				t.Fatalf("caller %d (ΔT=%g): sample %d = %v, want |ΔT|·unit = %v", i, s.Prob.DeltaT, j, v, k*unit[j])
			}
		}
	}
}

// TestUnitFieldCap: a unit solution keeps at most maxUnitFields grid sizes,
// MemoryBytes counts each cached field, and a field over its share of
// maxUnitFieldBytes is not cached and is bitwise the field sampled from the
// answer's own solution.
func TestUnitFieldCap(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Assembly = asm
	sol, err := SolveUniform(p)
	if err != nil {
		t.Fatal(err)
	}
	u := sol.unit
	for gs := 1; gs <= maxUnitFields+3; gs++ {
		before := asm.MemoryBytes()
		f := sol.VMField(gs, 0)
		if n := len(u.fields.m); n > maxUnitFields {
			t.Fatalf("gs=%d: %d unit fields cached, cap is %d", gs, n, maxUnitFields)
		}
		if gs <= maxUnitFields {
			if grew := asm.MemoryBytes() - before; grew != int64(8*len(f.V)) {
				t.Errorf("gs=%d: MemoryBytes grew by %d, want the field's %d bytes", gs, grew, 8*len(f.V))
			}
		}
	}
	gs := 1
	for unitFieldCached(p.Bx, p.By, gs) {
		gs *= 2
	}
	before, cached := asm.MemoryBytes(), len(u.fields.m)
	got := sol.VMField(gs, 0)
	if n := len(u.fields.m); n != cached || asm.MemoryBytes() != before {
		t.Errorf("gs=%d (%d samples) is over the ceiling but was cached", gs, len(got.V))
	}
	own := *sol
	own.unit = nil
	sameBits(t, fmt.Sprintf("gs=%d over the ceiling", gs), got.V, own.VMField(gs, 0).V)
}

// TestUnitFieldAnswerDoesNotPinAssembly: a retained SolveUniform answer
// whose field came from the unit field cache lets its Assembly be
// collected.
func TestUnitFieldAnswerDoesNotPinAssembly(t *testing.T) {
	p := precondProblem(t)
	asm, err := NewAssembly(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(asm, func(*Assembly) { close(freed) })
	p.Assembly = asm
	sol, err := SolveUniform(p)
	if err != nil {
		t.Fatal(err)
	}
	sol.VMField(4, 0)
	p.Assembly, asm = nil, nil
	for try := 0; ; try++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(sol)
			return
		case <-time.After(50 * time.Millisecond):
		}
		if try == 40 {
			t.Fatal("the Assembly was not collected while a scaled answer was retained")
		}
	}
}
