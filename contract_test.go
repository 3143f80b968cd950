package morestress_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	morestress "repro"
	"repro/internal/mesh"
	"repro/internal/romcache"
	"repro/internal/router"
)

// stripJobs are the contract's scenarios on a 1×48 strip of the served
// (5,5,5) coarse cell (4 797 free DoFs, a size that once took a different
// IC0 ordering):
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
// inside the contract too. It holds for the jobs as given, where uniform
// jobs are scaled from a unit-load solution, and for their cold copies
// (coldJobs), where each job solves its own load.
func TestAnswersIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 4 797-DoF lattice on six paths, twice")
	}
	for _, c := range []struct {
		name string
		jobs []morestress.Job
	}{
		{"default", stripJobs()},
		{"cold", coldJobs(stripJobs())},
	} {
		t.Run(c.name, func(t *testing.T) {
			jobs := c.jobs
			var opt morestress.EngineOptions
			var paths []answerPath
			for _, procs := range []int{1, 2, 4} {
				paths = append(paths, answerPath{fmt.Sprintf("Engine.Solve/GOMAXPROCS=%d", procs), func() []morestress.JobResult {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					return solveEach(morestress.NewEngine(opt), jobs)
				}})
			}
			for _, workers := range []int{1, 3} {
				paths = append(paths, answerPath{fmt.Sprintf("BatchSolve/workers=%d", workers), func() []morestress.JobResult {
					o := opt
					o.Workers = workers
					return morestress.NewEngine(o).BatchSolve(jobs).Results
				}})
			}
			paths = append(paths, answerPath{"Shards/3", func() []morestress.JobResult {
				return router.NewShards(3, opt).BatchSolve(jobs).Results
			}})
			for _, got := range assertSameAnswers(t, paths) {
				for i, r := range got {
					if n := len(r.Result.Solution.QFree); n != 4797 {
						t.Fatalf("job %d: %d free DoFs, want 4 797", i, n)
					}
					if o := r.Result.Stats.Ordering; o != morestress.OrderingTwoEnded {
						t.Errorf("job %d: ordering %v, want two-ended", i, o)
					}
				}
			}
		})
	}
}

// TestAnswersIndependentOfHistory is the contract that a uniform-ΔT answer
// does not depend on what its lattice solved before: one set of uniform
// jobs on a 6×6 lattice, submitted in three ΔT orders through
// Engine.Solve, BatchSolve and three shards, each on fresh engines, gives
// bitwise identical Q and fields, and each answer's Q and field agree with
// the cold solve of its coldJobs copy to rounding. The jobs sample their fields
// at two grid sizes, so a cached unit field of one can never answer the
// other.
func TestAnswersIndependentOfHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 6×6 lattice on nine paths")
	}
	cfg := morestress.DefaultConfig(15)
	cfg.Resolution = mesh.CoarseResolution()
	loads := []float64{-250, -200, -150, -100, -50, 40}
	jobs := make([]morestress.Job, len(loads))
	for i, dt := range loads {
		jobs[i] = morestress.Job{Config: cfg, Rows: 6, Cols: 6, DeltaT: dt, GridSamples: 4 + 2*(i%2)}
	}
	// One ROM cache for every engine: the lattice caches under test stay
	// private per engine, and the local stage runs once.
	roms := romcache.New(romcache.Options{})
	opt := morestress.EngineOptions{SharedCache: roms}
	orders := [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, rand.New(rand.NewSource(7)).Perm(len(jobs))}
	// inOrder runs the jobs permuted by order through solve and returns
	// the results in the jobs' own order.
	inOrder := func(order []int, solve func([]morestress.Job) []morestress.JobResult) []morestress.JobResult {
		perm := make([]morestress.Job, len(order))
		for k, i := range order {
			perm[k] = jobs[i]
		}
		got := solve(perm)
		out := make([]morestress.JobResult, len(jobs))
		for k, i := range order {
			out[i] = got[k]
		}
		return out
	}
	var paths []answerPath
	for _, order := range orders {
		paths = append(paths,
			answerPath{fmt.Sprintf("Engine.Solve/order=%v", order), func() []morestress.JobResult {
				return inOrder(order, func(js []morestress.Job) []morestress.JobResult {
					return solveEach(morestress.NewEngine(opt), js)
				})
			}},
			answerPath{fmt.Sprintf("BatchSolve/order=%v", order), func() []morestress.JobResult {
				return inOrder(order, func(js []morestress.Job) []morestress.JobResult {
					o := opt
					o.Workers = 2
					return morestress.NewEngine(o).BatchSolve(js).Results
				})
			}},
			answerPath{fmt.Sprintf("Shards/3/order=%v", order), func() []morestress.JobResult {
				return inOrder(order, func(js []morestress.Job) []morestress.JobResult {
					return router.NewShards(3, opt).BatchSolve(js).Results
				})
			}})
	}
	ref := assertSameAnswers(t, paths)[0]
	for i, r := range morestress.NewEngine(opt).BatchSolve(coldJobs(jobs)).Results {
		if r.Err != nil {
			t.Fatalf("cold job %d: %v", i, r.Err)
		}
		got, want := ref[i].Result.Solution.Q, r.Result.Solution.Q
		var num, den float64
		for k := range want {
			d := got[k] - want[k]
			num += d * d
			den += want[k] * want[k]
		}
		if rel := math.Sqrt(num / den); !(rel <= 1e-12) {
			t.Errorf("job %d (ΔT=%g): Q deviates from the cold solve by %.3g relative", i, loads[i], rel)
		}
		gf, wf := ref[i].Result.VM.V, r.Result.VM.V
		if len(gf) != len(wf) {
			t.Fatalf("job %d: %d field samples, the cold solve has %d", i, len(gf), len(wf))
		}
		var diff, top float64
		for k := range wf {
			diff = math.Max(diff, math.Abs(gf[k]-wf[k]))
			top = math.Max(top, math.Abs(wf[k]))
		}
		if rel := diff / top; !(rel <= 1e-12) {
			t.Errorf("job %d (ΔT=%g): field deviates from the cold solve's by %.3g relative", i, loads[i], rel)
		}
	}
}

// coldJobs returns copies of jobs in which each uniform load is stated as a
// constant ΔT map. The engine never scales a map from its lattice's
// unit-load solution, so each copy solves its own load from zero and
// samples its own field: the cold reference of the unit-solution reuse.
func coldJobs(jobs []morestress.Job) []morestress.Job {
	out := make([]morestress.Job, len(jobs))
	for i, job := range jobs {
		if job.DeltaTMap == nil {
			dt := job.DeltaT
			job.DeltaTMap = func(int, int) float64 { return dt }
		}
		out[i] = job
	}
	return out
}

// answerPath is one way of solving a contract's jobs; solve returns the
// results in the jobs' order.
type answerPath struct {
	name  string
	solve func() []morestress.JobResult
}

// solveEach runs the jobs one by one through e.Solve.
func solveEach(e *morestress.Engine, jobs []morestress.Job) []morestress.JobResult {
	out := make([]morestress.JobResult, len(jobs))
	for i, job := range jobs {
		r, _ := e.Solve(job)
		out[i] = *r
	}
	return out
}

// assertSameAnswers runs every path and fails unless each job's Q and field
// are bitwise identical to those of the first path. It returns the results
// of every path.
func assertSameAnswers(t *testing.T, paths []answerPath) [][]morestress.JobResult {
	t.Helper()
	all := make([][]morestress.JobResult, len(paths))
	for p, path := range paths {
		got := path.solve()
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("%s job %d: %v", path.name, i, r.Err)
			}
		}
		all[p] = got
		ref := all[0]
		for i := range got {
			if d := bitDiffs(got[i].Result.Solution.Q, ref[i].Result.Solution.Q); d != 0 {
				t.Errorf("%s job %d: %d of %d Q entries differ from %s", path.name, i, d, len(ref[i].Result.Solution.Q), paths[0].name)
			}
			gf, rf := got[i].Result.VM, ref[i].Result.VM
			if (gf == nil) != (rf == nil) {
				t.Fatalf("%s job %d: field present %v, want %v", path.name, i, gf != nil, rf != nil)
			}
			if rf != nil {
				if d := bitDiffs(gf.V, rf.V); d != 0 {
					t.Errorf("%s job %d: %d of %d field samples differ from %s", path.name, i, d, len(rf.V), paths[0].name)
				}
			}
		}
	}
	return all
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
