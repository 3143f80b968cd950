// Batch: serve many array scenarios off shared reduced-order models with
// the concurrent batch engine. The engine caches each distinct unit cell's
// ROM (content-addressed, singleflight-deduplicated), so a batch mixing
// array sizes, thermal loads, and pitches pays the one-shot local stage
// once per unit cell — the reusability claim of §4.1 turned into a service
// primitive. A second, warm batch then runs with zero local stages, and a
// ΔT sweep under the Direct solver shares one Cholesky factorization.
// Finally the same engine is wrapped in the async job queue (the library
// face of cmd/serve's POST /jobs): submit returns an ID immediately and the
// lifecycle streams as events while the solve proceeds in the background.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	morestress "repro"
	"repro/internal/jobqueue"
)

func main() {
	engine := morestress.NewEngine(morestress.EngineOptions{Workers: 4})

	// 12 scenarios over two unit cells (pitch 15 and 10 µm): different
	// array sizes and thermal loads, one shared ROM per pitch.
	var jobs []morestress.Job
	for i, pitch := range []float64{15, 10} {
		cfg := morestress.DefaultConfig(pitch)
		for j := 0; j < 6; j++ {
			jobs = append(jobs, morestress.Job{
				Config: cfg,
				Rows:   4 + 2*j, Cols: 4 + 2*j,
				DeltaT:      -250 + 25*float64(i+j),
				GridSamples: 20,
			})
		}
	}

	fmt.Println("cold batch (local stage runs once per unit cell):")
	report(engine, jobs)

	fmt.Println("\nwarm batch (every ROM cached — no local stage at all):")
	report(engine, jobs)

	// ΔT sweep with the Direct solver: same lattice, so the engine shares
	// a single Cholesky factorization across the whole sweep.
	sweep := make([]morestress.Job, 8)
	for i := range sweep {
		sweep[i] = morestress.Job{
			Config: morestress.DefaultConfig(15),
			Rows:   6, Cols: 6,
			DeltaT: -40 * float64(i+1),
			Solver: morestress.SolveDirect,
		}
	}
	fmt.Println("\ndirect-solver ΔT sweep (one factorization, eight solves):")
	report(engine, sweep)

	// The same sweep through the iterative (PCG) path: the engine assembles
	// the reduced global system once per lattice, solves the unit load
	// (ΔT = 1) once, and answers every scenario as ΔT times that solution.
	// The cold baseline states each load as a constant ΔT map instead —
	// identical work on the same cached assembly and factor, but a map is
	// never scaled from the unit solution, so every scenario solves from
	// zero — to show the iteration budget the reuse saves.
	pcgSweep := func(mapped bool) []morestress.Job {
		jobs := make([]morestress.Job, 8)
		for i := range jobs {
			dt := -40 * float64(i+1)
			jobs[i] = morestress.Job{
				Config: morestress.DefaultConfig(15),
				Rows:   6, Cols: 6,
				DeltaT: dt,
				Solver: morestress.SolveCG,
			}
			if mapped {
				jobs[i].DeltaTMap = func(int, int) float64 { return dt }
			}
		}
		return jobs
	}
	fmt.Println("\npcg ΔT sweep (assemble-once + unit-solution reuse vs cold baseline):")
	warmBR := engine.BatchSolve(pcgSweep(false))
	coldBR := engine.BatchSolve(pcgSweep(true))
	fmt.Printf("  warm: %4d total PCG iterations (%d/%d answers scaled from the unit-load solve; lattice matrix reused from the direct sweep's assembly)\n",
		warmBR.Stats.Iterations, warmBR.Stats.WarmStarts, warmBR.Stats.Jobs)
	fmt.Printf("  cold: %4d total PCG iterations (every solve from zero)\n", coldBR.Stats.Iterations)
	if warmBR.Stats.Iterations < coldBR.Stats.Iterations {
		fmt.Printf("  => unit-solution reuse saved %d iterations (%.0f%%)\n",
			coldBR.Stats.Iterations-warmBR.Stats.Iterations,
			100*float64(coldBR.Stats.Iterations-warmBR.Stats.Iterations)/float64(coldBR.Stats.Iterations))
	}

	s := engine.Stats()
	fmt.Printf("\nengine lifetime: %d jobs, %d ROM builds (%v local-stage time), %d cache hits, %d factorization(s), %d factor hits, %d assemblies (%d reused), warm-start rate %.0f%%\n",
		s.JobsDone, s.Cache.Misses, s.Cache.BuildTime, s.Cache.Hits, s.Factorizations, s.FactorHits,
		s.Assemblies, s.AssemblyHits, 100*warmRate(s))

	asyncDemo(engine)
}

// warmRate is the engine-lifetime warm-start hit rate.
func warmRate(s morestress.EngineStats) float64 {
	if s.IterativeSolves == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(s.IterativeSolves)
}

// asyncDemo submits a ΔT sweep to the job queue and watches its lifecycle
// through the event stream instead of blocking on the solve.
func asyncDemo(engine *morestress.Engine) {
	queue, err := jobqueue.New(jobqueue.Options{
		Depth: 16, Workers: 1, TTL: time.Minute,
		Solve: func(ctx context.Context, sc morestress.Job) (*morestress.JobResult, error) {
			res, _ := engine.Solve(sc)
			return res, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer queue.Close()

	scenarios := make([]morestress.Job, 4)
	for i := range scenarios {
		scenarios[i] = morestress.Job{
			Config: morestress.DefaultConfig(15),
			Rows:   5, Cols: 5,
			DeltaT: -60 * float64(i+1),
		}
	}
	id, err := queue.Submit(scenarios, nil, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nasync job %s submitted (returns immediately; queue depth %d):\n", id, queue.Stats().Depth)
	events, stop, ok := queue.Subscribe(id)
	if !ok {
		log.Fatalf("job %s vanished", id)
	}
	defer stop()
	for ev := range events {
		switch ev.Type {
		case jobqueue.EventState:
			fmt.Printf("  state=%s %d/%d scenarios\n", ev.State, ev.Completed, ev.Total)
		case jobqueue.EventScenario:
			fmt.Printf("  scenario %d finished (%d/%d): %d iterations, precond=%s, warm=%v\n",
				ev.Scenario, ev.Completed, ev.Total, ev.Iterations, ev.Precond, ev.WarmStart)
		}
	}
	snap, _ := queue.Get(id)
	fmt.Printf("  => %s in %v wait + %v run; results retained for the TTL\n", snap.State, snap.Wait.Round(1e6), snap.Run.Round(1e6))
}

func report(e *morestress.Engine, jobs []morestress.Job) {
	br := e.BatchSolve(jobs)
	for _, r := range br.Results {
		if r.Err != nil {
			log.Fatalf("job %d: %v", r.Index, r.Err)
		}
		j := jobs[r.Index]
		src := "built"
		if r.CacheHit {
			src = "cached"
		}
		maxVM := 0.0
		if r.Result.VM != nil {
			maxVM = r.Result.VM.Max()
		}
		fmt.Printf("  %2dx%-2d ΔT=%-6.0f rom=%-6s local=%-12v global=%-12v maxVM=%.1f MPa\n",
			j.Rows, j.Cols, j.DeltaT, src, r.LocalWait.Round(1e5), r.Result.GlobalTime.Round(1e5), maxVM)
	}
	st := br.Stats
	fmt.Printf("  => %d jobs in %v wall (%d cache hits / %d misses; local %v, global %v summed)\n",
		st.Jobs, st.Wall.Round(1e6), st.CacheHits, st.CacheMisses, st.LocalTime.Round(1e6), st.GlobalTime.Round(1e6))
}
