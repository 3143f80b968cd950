package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	morestress "repro"
)

// setupReps is how many times each workload sets up from scratch; setup_s
// is the median, and the last set-up serves the timed phase.
const setupReps = 3

// closedLoop is one caller that issues op k as soon as op k−1 returned.
type closedLoop struct {
	tr  *Tracer
	cur atomic.Int64 // op id of the call in flight, for span attribution
}

func (c *closedLoop) reqOf(morestress.Job) int64 { return c.cur.Load() }

// run drives ops until dur has passed. op runs op k and returns its result
// and the wall time of the engine call inside it. Per op it records the
// latency, the time outside the engine call, and the generator gap (time
// between one op returning and the next being issued — the closed loop's
// lateness).
func (c *closedLoop) run(out *outcome, dur time.Duration, op func(k int) (*morestress.JobResult, time.Duration, error)) {
	start := time.Now()
	deadline := start.Add(dur)
	prevEnd := start
	for k := 0; time.Now().Before(deadline); k++ {
		c.cur.Store(int64(k))
		t0 := time.Now()
		res, engineWall, err := op(k)
		t1 := time.Now()
		out.attempted++
		if err == nil && res.Err != nil {
			err = res.Err
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", k, err)
			continue
		}
		root := c.tr.Add("client.op", int64(k), -1, t0, t1)
		c.tr.Adopt(int64(k), root, "")
		out.latencies = append(out.latencies, ms(t1.Sub(t0)))
		out.transport = append(out.transport, ms(t1.Sub(t0)-engineWall))
		out.late = append(out.late, ms(t0.Sub(prevEnd)))
		out.scenarios++
		out.done = append(out.done, k)
		prevEnd = t1
	}
	out.elapsed = time.Since(start)
}

// runHotspot is the Krylov-bound steady state: one warm engine, one 12×12
// lattice, a fresh Gaussian hotspot per op. The per-block ΔT bypasses the
// warm-start seed while the assembly and IC0 factor stay cached, so every op
// is a full preconditioned solve from zero.
func runHotspot(seed int64, dur time.Duration, tr *Tracer) (*outcome, error) {
	out := &outcome{minSamples: 40}
	c := &closedLoop{tr: tr}
	warm := hotspotOps(^seed, setupReps)
	var dec *tracedSolver
	var setupRecs []solveRec
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := startTuning(); err != nil {
			return nil, err
		}
		dec = &tracedSolver{inner: morestress.NewEngine(morestress.EngineOptions{}), tr: tr, reqOf: c.reqOf}
		if _, err := dec.Solve(warm[i].Job()); err != nil {
			return nil, fmt.Errorf("hotspot set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
		setupRecs = dec.take()
	}
	tr.Reset()

	ops := hotspotOps(seed, 1<<12)
	qs := make(map[int][]float64)
	check := sampled(seed, len(ops), 4)
	st0, m0 := dec.Stats(), readMem()
	c.run(out, dur, func(k int) (*morestress.JobResult, time.Duration, error) {
		res, err := dec.Solve(ops[k].Job())
		if err == nil && check[k] {
			qs[k] = res.Result.Solution.Q
		}
		return res, dec.lastWall(), err
	})
	m1 := readMem()
	out.layers = engineLayers(setupRecs, dec.take(), diffStats(st0, dec.Stats()), m0, m1)
	out.measureMemory()
	runtime.KeepAlive(dec) // the warm engine's caches are the live heap measured

	ref := morestress.NewEngine(morestress.EngineOptions{})
	for _, k := range out.done {
		if q, ok := qs[k]; ok {
			want, err := directQ(ref, ops[k].Job())
			if err == nil {
				err = checkQ(q, want)
			}
			if !out.verify(k, err) {
				out.scenarios--
			}
		}
	}
	out.probeJob = ops[0].Job()
	return out, nil
}

// runNewDesign is cold design-space exploration: every op is a never-seen
// unit cell on a never-seen lattice, solved by a fresh engine, so each op
// pays the ROM build, the assembly, the preconditioner build and a cold
// solve — every cache misses.
func runNewDesign(seed int64, dur time.Duration, tr *Tracer) (*outcome, error) {
	out := &outcome{minSamples: 20}
	c := &closedLoop{tr: tr}
	warm := designOps(^seed, setupReps)
	var setupRecs []solveRec
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := startTuning(); err != nil {
			return nil, err
		}
		dec := &tracedSolver{inner: morestress.NewEngine(morestress.EngineOptions{}), tr: tr, reqOf: c.reqOf}
		if _, err := dec.Solve(warm[i].Job()); err != nil {
			return nil, fmt.Errorf("new-design set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
		setupRecs = append(setupRecs, dec.take()...)
	}
	tr.Reset()

	ops := designOps(seed, 1<<12)
	qs := make(map[int][]float64)
	check := sampled(seed, len(ops), 5)
	var st morestress.EngineStats
	var recs []solveRec
	m0 := readMem()
	c.run(out, dur, func(k int) (*morestress.JobResult, time.Duration, error) {
		dec := &tracedSolver{inner: morestress.NewEngine(morestress.EngineOptions{}), tr: tr, reqOf: c.reqOf}
		res, err := dec.Solve(ops[k].Job())
		st.Merge(dec.Stats())
		wall := dec.lastWall()
		recs = append(recs, dec.take()...)
		if err == nil && check[k] {
			qs[k] = res.Result.Solution.Q
		}
		return res, wall, err
	})
	m1 := readMem()
	out.layers = engineLayers(setupRecs, recs, st, m0, m1)
	out.measureMemory()

	ref := morestress.NewEngine(morestress.EngineOptions{})
	for _, k := range out.done {
		if q, ok := qs[k]; ok {
			want, err := directQ(ref, ops[k].Job())
			if err == nil {
				err = checkQ(q, want)
			}
			if !out.verify(k, err) {
				out.scenarios--
			}
		}
	}
	out.probeJob = ops[0].Job()
	return out, nil
}
