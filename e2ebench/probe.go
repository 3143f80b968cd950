package main

import (
	"fmt"
	"time"

	morestress "repro"
	"repro/internal/array"
	"repro/internal/solver"
)

// kernelProbe ties the internal/sparse layer to the solver figures: it
// builds the job's reduced system through the same public array/solver
// entry points the engine uses, with the options the engine resolves for a
// default job, then times the blocked mat-vec and one preconditioner apply
// on it. Byte counts are computed from array sizes, not measured.
func kernelProbe(job morestress.Job) (map[string]float64, error) {
	model, err := morestress.BuildModel(job.Config)
	if err != nil {
		return nil, err
	}
	workers := solver.DefaultWorkers()
	prob := &array.Problem{
		ROM: model.TSV, Bx: job.Cols, By: job.Rows, DeltaT: job.DeltaT,
		BC: array.ClampedTopBottom, Solver: array.GMRES, Opt: job.Options, Workers: workers,
	}
	asm, err := array.NewAssembly(prob, workers)
	if err != nil {
		return nil, err
	}
	bm := asm.Blocked()
	if bm == nil {
		return nil, fmt.Errorf("reduced system of %d DoFs does not tile", asm.NumFree())
	}
	ap, err := asm.PreconditionerPrec(job.Options.Precond, job.Options.Ordering, job.Options.Precision, workers)
	if err != nil {
		return nil, err
	}
	n := bm.NRows
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	const reps = 41
	mv := make([]float64, reps)
	pa := make([]float64, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		bm.MulVecPar(y, x, workers)
		mv[i] = float64(time.Since(t)) / float64(time.Microsecond)
		t = time.Now()
		ap.M.Apply(y, x)
		pa[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	matvecUS := median(mv)
	// One product streams every tile, every index, and x and y once.
	bytes := float64(8*len(bm.Vals) + 4*len(bm.BColIdx) + 4*len(bm.BRowPtr) + 8*2*n)
	return map[string]float64{
		"sparse.matvec_us":             matvecUS,
		"sparse.precond_apply_us":      median(pa),
		"sparse.nnz":                   float64(bm.ScalarNNZ),
		"sparse.tiles":                 float64(bm.NNZBlocks()),
		"sparse.matvec_bytes_computed": bytes,
		"sparse.matvec_gbps_computed":  bytes / (matvecUS * 1e-6) / 1e9,
		"array.assembly_buildtime_ms":  ms(asm.BuildTime),
		"array.free_dofs":              float64(asm.NumFree()),
	}, nil
}
