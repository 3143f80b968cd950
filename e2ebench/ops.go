package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	morestress "repro"
	"repro/internal/mesh"
	"repro/internal/serveapi"
)

// Every op sequence below is a pure function of the seed: the same seed
// yields the same ΔT maps, pitches, dimensions, request bodies and arrival
// times, and the program only ever sees the generated inputs.

// coarseConfig is the unit cell of the hotspot and new-design workloads:
// the paper geometry at the given pitch, coarse block resolution, and the
// default (5,5,5) interpolation nodes.
func coarseConfig(pitch float64) morestress.Config {
	cfg := morestress.DefaultConfig(pitch)
	cfg.Resolution = mesh.CoarseResolution()
	return cfg
}

// hotspotDim is the hotspot lattice edge: 12×12 blocks, 24 351 DoFs.
const hotspotDim = 12

// hotspotOp is one Gaussian hotspot on the hotspot lattice.
type hotspotOp struct {
	Row, Col float64 // centre, in blocks
	Sigma    float64 // width, in blocks
	Amp      float64 // °C above the −250 °C ambient at the centre
}

// DeltaT is the op's per-block thermal load.
func (h hotspotOp) DeltaT(row, col int) float64 {
	dr, dc := float64(row)-h.Row, float64(col)-h.Col
	return -250 + h.Amp*math.Exp(-(dr*dr+dc*dc)/(2*h.Sigma*h.Sigma))
}

// Job is the op as the engine receives it: default solver, preconditioner,
// ordering and precision, no field sampling.
func (h hotspotOp) Job() morestress.Job {
	return morestress.Job{
		Config: coarseConfig(15), Rows: hotspotDim, Cols: hotspotDim,
		DeltaT: -250, DeltaTMap: h.DeltaT,
	}
}

func hotspotOps(seed int64, n int) []hotspotOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]hotspotOp, n)
	for i := range ops {
		ops[i] = hotspotOp{
			Row:   r.Float64() * hotspotDim,
			Col:   r.Float64() * hotspotDim,
			Sigma: 1.5 + 2*r.Float64(),
			Amp:   60 + 100*r.Float64(),
		}
	}
	return ops
}

// designOp is one never-seen unit cell and lattice.
type designOp struct {
	Pitch      float64 // µm, continuous in [10, 20)
	Rows, Cols int     // each in 4..8, Rows+Cols = 12
}

// designGridSamples is the per-block field resolution of a new design.
const designGridSamples = 20

func (d designOp) Job() morestress.Job {
	return morestress.Job{
		Config: coarseConfig(d.Pitch), Rows: d.Rows, Cols: d.Cols,
		DeltaT: -250, GridSamples: designGridSamples,
	}
}

// designOps draws designs in rounds of five: a round holds the lattices
// 4×8, 5×7, 6×6, 7×5 and 8×4 in a seeded order, each at a fresh pitch. The
// 4×8 and 8×4 systems (2 457 free DoFs) fall below the 2 500-DoF IC0
// threshold and the others above it, and every run sees the same mix of
// lattice sizes whatever the seed, so the per-op latency distribution does
// not move with it.
func designOps(seed int64, n int) []designOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]designOp, 0, n)
	for len(ops) < n {
		for _, i := range r.Perm(5) {
			if len(ops) == n {
				break
			}
			ops = append(ops, designOp{Pitch: 10 + 10*r.Float64(), Rows: 4 + i, Cols: 8 - i})
		}
	}
	return ops
}

// Serve-sweep key space and request shape.
const (
	serveKeys        = 4  // distinct unit cells
	serveDim         = 6  // 6×6 lattices
	serveGridSamples = 40 // per-block field resolution of /solve
	serveSweepPoints = 4  // scenarios per /jobs sweep
	// serveSweepSamples is the field resolution of sweep scenarios. Sweeps
	// are light, so the /solve median sits inside the latency mode of
	// requests that do not share the cores with a sweep rather than on the
	// sparse edge between the two modes, where it would swing run to run.
	serveSweepSamples = 10
)

// servePitch is the unit cell of key k.
func servePitch(k int) float64 { return 12 + 2*float64(k) }

// serveOp is one open-loop arrival.
type serveOp struct {
	Due  time.Duration // from the start of the timed phase
	Jobs bool          // POST /jobs sweep instead of POST /solve
	Key  int
	// DeltaTs holds the scenario loads: one for /solve, serveSweepPoints
	// for a sweep. Uniform loads, so the warm-start seed applies.
	DeltaTs      []float64
	IncludeField bool
}

func (o serveOp) request(dt float64) serveapi.JobRequest {
	d := dt
	gs := serveGridSamples
	if o.Jobs {
		gs = serveSweepSamples
	}
	return serveapi.JobRequest{
		Pitch: servePitch(o.Key), Resolution: "coarse",
		Rows: serveDim, Cols: serveDim, DeltaT: &d,
		GridSamples: gs, IncludeField: o.IncludeField,
	}
}

// Body is the request body the client sends.
func (o serveOp) Body() []byte {
	var v any
	if o.Jobs {
		var br serveapi.BatchRequest
		for _, dt := range o.DeltaTs {
			br.Jobs = append(br.Jobs, o.request(dt))
		}
		v = br
	} else {
		v = o.request(o.DeltaTs[0])
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal request: %v", err)) // plain structs always marshal
	}
	return b
}

// serveMix is one block of ten arrivals: two sweeps, and eight /solve
// requests of which two return the field. Every block is this mix in a
// seeded order, so the offered work per second does not move with the
// seed.
var serveMix = [10]serveKind{sweep, sweep, solveField, solveField, solve, solve, solve, solve, solve, solve}

type serveKind int

const (
	solve serveKind = iota
	solveField
	sweep
)

// serveOps lays out arrivals evenly at rate per second over d.
func serveOps(seed int64, rate float64, d time.Duration) []serveOp {
	r := rand.New(rand.NewSource(seed))
	n := int(rate * d.Seconds())
	ops := make([]serveOp, 0, n)
	for len(ops) < n {
		for _, j := range r.Perm(len(serveMix)) {
			if len(ops) == n {
				break
			}
			i := len(ops)
			o := serveOp{Due: time.Duration(float64(i) / rate * float64(time.Second)), Key: r.Intn(serveKeys)}
			base := -(150 + 200*r.Float64())
			switch serveMix[j] {
			case sweep:
				o.Jobs = true
				for p := 0; p < serveSweepPoints; p++ {
					o.DeltaTs = append(o.DeltaTs, base-10*float64(p))
				}
			case solveField:
				o.IncludeField = true
				fallthrough
			case solve:
				o.DeltaTs = []float64{base}
			}
			ops = append(ops, o)
		}
	}
	return ops
}
