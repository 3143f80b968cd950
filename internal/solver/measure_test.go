package solver_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/solver"
)

// TestMeasureIC0Drop regenerates the tile-drop table of
// docs/SOLVER_TUNING.md: for each candidate drop threshold τ, the served
// 6×6 to 24×24 lattices' float32 IC0 factor — kept
// tiles, factor bytes, build time, GMRES iterations (Tol 1e-8, the serving
// default) and the best of 3 warm solves on a reused workspace, with the
// preconditioner-apply share of that solve. τ = 0 is the whole IC(0)
// factor. Gated behind MEASURE=1 because the large lattices take minutes.
func TestMeasureIC0Drop(t *testing.T) {
	if os.Getenv("MEASURE") == "" {
		t.Skip("set MEASURE=1 to run the measurement harness")
	}
	for _, size := range []int{6, 12, 18, 24} {
		a, b := servedMatrix(t, size)
		fmt.Printf("MEASURE %dx%d gomaxprocs=%d free_dofs=%d\n", size, size, runtime.GOMAXPROCS(0), a.NRows)
		for _, tau := range []float64{0, 5e-3, 1e-2, 2e-2} {
			start := time.Now()
			m, err := solver.NewIC0Tau(a, solver.PrecisionAuto, tau)
			if err != nil {
				t.Fatal(err)
			}
			build := time.Since(start)
			l := solver.IC0Factor(m)
			ws := solver.NewWorkspace(runtime.GOMAXPROCS(0))
			warm, apply := math.Inf(1), 0.0
			iters := 0
			for rep := 0; rep < 4; rep++ { // the first solve warms the workspace
				start := time.Now()
				_, st, err := solver.GMRES(a, b, nil, solver.Options{M: m, Work: ws})
				if err != nil {
					t.Fatalf("%dx%d τ=%g: %v", size, size, tau, err)
				}
				if ms := float64(time.Since(start).Microseconds()) / 1e3; rep > 0 && ms < warm {
					warm, apply = ms, float64(st.PrecondApply.Microseconds())/1e3
				}
				iters = st.Iterations
			}
			ws.Close()
			fmt.Printf("MEASURE %dx%d tau=%-6g tiles=%7d bytes=%9d build=%5.0fms it=%3d warm=%6.1fms apply=%6.1fms\n",
				size, size, tau, len(l.Lower.Idx), l.MemoryBytes(), float64(build.Microseconds())/1e3, iters, warm, apply)
		}
	}
}
