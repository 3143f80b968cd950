package morestress_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	morestress "repro"
	"repro/internal/mesh"
	"repro/internal/router"
)

// stripJobs are the contract's scenarios on a 1×48 strip of the served
// (5,5,5) coarse cell (4 797 free DoFs, above solver.AutoMulticolorMinDoFs):
// a hotspot-shaped per-block ΔT, a uniform ΔT, and a uniform ΔT with its
// von Mises field sampled. Every job uses the default solver options.
func stripJobs() []morestress.Job {
	cfg := morestress.DefaultConfig(15)
	cfg.Resolution = mesh.CoarseResolution()
	hotspot := func(row, col int) float64 {
		dr, dc := float64(row)-0.3, float64(col)-17.5
		return -250 + 120*math.Exp(-(dr*dr+dc*dc)/(2*3.0*3.0))
	}
	return []morestress.Job{
		{Config: cfg, Rows: 1, Cols: 48, DeltaT: -250, DeltaTMap: hotspot},
		{Config: cfg, Rows: 1, Cols: 48, DeltaT: -200},
		{Config: cfg, Rows: 1, Cols: 48, DeltaT: -150, GridSamples: 6},
	}
}

// TestAnswersIndependentOfWorkers is the contract that a served answer
// depends only on the request: the same jobs solved through Engine.Solve at
// GOMAXPROCS 1, 2 and 4, through BatchSolve with 1 and 3 workers, and
// through three in-process shards give bitwise identical Q and fields. Each
// path runs on fresh engines and a fresh ROM cache, so the local stage is
// inside the contract too. Warm starts are off, so a uniform answer does
// not depend on what its lattice solved before.
func TestAnswersIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 4 797-DoF lattice on six paths")
	}
	jobs := stripJobs()
	opt := morestress.EngineOptions{DisableWarmStart: true}
	type path struct {
		name  string
		solve func() []morestress.JobResult
	}
	var paths []path
	for _, procs := range []int{1, 2, 4} {
		paths = append(paths, path{fmt.Sprintf("Engine.Solve/GOMAXPROCS=%d", procs), func() []morestress.JobResult {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := morestress.NewEngine(opt)
			out := make([]morestress.JobResult, len(jobs))
			for i, job := range jobs {
				r, _ := e.Solve(job)
				out[i] = *r
			}
			return out
		}})
	}
	for _, workers := range []int{1, 3} {
		paths = append(paths, path{fmt.Sprintf("BatchSolve/workers=%d", workers), func() []morestress.JobResult {
			o := opt
			o.Workers = workers
			return morestress.NewEngine(o).BatchSolve(jobs).Results
		}})
	}
	paths = append(paths, path{"Shards/3", func() []morestress.JobResult {
		return router.NewShards(3, opt).BatchSolve(jobs).Results
	}})

	var ref []morestress.JobResult
	for _, p := range paths {
		got := p.solve()
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("%s job %d: %v", p.name, i, r.Err)
			}
			if n := len(r.Result.Solution.QFree); n != 4797 {
				t.Fatalf("%s: %d free DoFs, want 4 797", p.name, n)
			}
			if o := r.Result.Stats.Ordering; o != morestress.OrderingMulticolor {
				t.Errorf("%s job %d: ordering %v, want multicolor by size", p.name, i, o)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range jobs {
			if d := bitDiffs(got[i].Result.Solution.Q, ref[i].Result.Solution.Q); d != 0 {
				t.Errorf("%s job %d: %d of %d Q entries differ from %s", p.name, i, d, len(ref[i].Result.Solution.Q), paths[0].name)
			}
			gf, rf := got[i].Result.VM, ref[i].Result.VM
			if (gf == nil) != (rf == nil) {
				t.Fatalf("%s job %d: field present %v, want %v", p.name, i, gf != nil, rf != nil)
			}
			if rf != nil {
				if d := bitDiffs(gf.V, rf.V); d != 0 {
					t.Errorf("%s job %d: %d of %d field samples differ from %s", p.name, i, d, len(rf.V), paths[0].name)
				}
			}
		}
	}
}

// bitDiffs counts the entries of a and b whose bits differ (every entry
// past the shorter length counts).
func bitDiffs(a, b []float64) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			n++
		}
	}
	return n
}
