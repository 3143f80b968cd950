package morestress_test

import (
	"fmt"

	morestress "repro"
	"repro/internal/mesh"
)

// The godoc examples use a deliberately coarse configuration so they run in
// test time; real studies use DefaultConfig as-is.
func exampleConfig() morestress.Config {
	cfg := morestress.DefaultConfig(15)
	cfg.Resolution = mesh.CoarseResolution()
	cfg.Nodes = [3]int{3, 3, 3}
	return cfg
}

// ExampleBuildModel shows the one-shot local stage: the element DoF count is
// determined by the interpolation nodes alone (Eq. 16 of the paper).
func ExampleBuildModel() {
	model, err := morestress.BuildModel(exampleConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println("element DoFs:", model.ElementDoFs())
	// Output:
	// element DoFs: 78
}

// ExampleModel_SolveArray solves a small clamped array and reports whether
// the global solver converged.
func ExampleModel_SolveArray() {
	model, err := morestress.BuildModel(exampleConfig())
	if err != nil {
		panic(err)
	}
	res, err := model.SolveArray(morestress.ArraySpec{
		Rows: 3, Cols: 3, DeltaT: -250,
		Options: morestress.SolverOptions{Tol: 1e-9},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", res.Stats.Converged)
	fmt.Println("global DoFs:", res.GlobalDoFs)
	// Output:
	// converged: true
	// global DoFs: 414
}

// ExampleVonMises demonstrates the stress post-processing helpers.
func ExampleVonMises() {
	uniaxial := [6]float64{100, 0, 0, 0, 0, 0}
	fmt.Printf("vM = %.0f MPa\n", morestress.VonMises(uniaxial))
	p := morestress.PrincipalStresses(uniaxial)
	fmt.Printf("sigma1 = %.0f MPa, Tresca = %.0f MPa\n", p[0], morestress.Tresca(uniaxial))
	// Output:
	// vM = 100 MPa
	// sigma1 = 100 MPa, Tresca = 100 MPa
}

// ExamplePaperGeometry prints the paper's TSV dimensions.
func ExamplePaperGeometry() {
	g := morestress.PaperGeometry(10)
	fmt.Printf("h=%g d=%g t=%g p=%g µm\n", g.Height, g.Diameter, g.Liner, g.Pitch)
	// Output:
	// h=50 d=5 t=0.5 p=10 µm
}

// ExampleEngine_warmStart contrasts a ΔT sweep on the default engine —
// which assembles the lattice's reduced system once, solves the unit load
// once, and answers every scenario as ΔT times that solution — against the
// same loads stated as constant ΔT maps, which the engine never scales from
// the unit solution, so it solves every scenario from zero. The answers
// agree to rounding; the iteration budget does not.
func ExampleEngine_warmStart() {
	sweep := func(mapped bool) []morestress.Job {
		jobs := make([]morestress.Job, 4)
		for i := range jobs {
			dt := -60 * float64(i+1)
			jobs[i] = morestress.Job{
				Config: exampleConfig(), Rows: 3, Cols: 3,
				DeltaT: dt,
				Solver: morestress.SolveCG,
			}
			if mapped {
				jobs[i].DeltaTMap = func(int, int) float64 { return dt }
			}
		}
		return jobs
	}
	warm := morestress.NewEngine(morestress.EngineOptions{Workers: 1})
	cold := morestress.NewEngine(morestress.EngineOptions{Workers: 1})
	w := warm.BatchSolve(sweep(false))
	c := cold.BatchSolve(sweep(true))

	fmt.Println("errors:", w.Stats.Errors+c.Stats.Errors)
	fmt.Println("warm-started solves:", w.Stats.WarmStarts)
	fmt.Println("assemblies built:", warm.Stats().Assemblies)
	fmt.Println("warm sweep uses fewer iterations:", w.Stats.Iterations < c.Stats.Iterations)
	// Output:
	// errors: 0
	// warm-started solves: 3
	// assemblies built: 1
	// warm sweep uses fewer iterations: true
}
